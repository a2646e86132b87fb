"""Tests for canonical component fingerprints."""

import dataclasses
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
        # Parsers seal the template; a device built directly (here a
        # field-by-field copy) derives it on first access.
        device = dataclasses.replace(_named("r1"))
        assert "_template" not in device.__dict__
        assert isinstance(device.template, DeviceTemplate)
        assert "_template" in device.__dict__
        assert device.template is device.template

    def test_parsers_seal_it_and_it_pickles(self):
        device = _named("r1")
        assert "_template" in device.__dict__
        clone = pickle.loads(pickle.dumps(device))
        assert "_template" in clone.__dict__
        assert clone.template == device.template == compute_template(device)

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
# stale entries.  Schema 1's values were computed before the per-type
# walker and the stanza memo existed; these are schema 2's, re-pinned when
# both parsers' interface addresses became one model type (``HostPrefix``),
# and must never change under a schema 2.

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
        "acls": {"EDGE": "7a46782bb60fe1aa41f7069f23944d130f351c05baed210749686b21c443c186"},
        "route_maps": {"OUT": "eaee61093130a496737096ef203d050d1d166572db7691a14f9307d7692572da"},
        "static_routes": "3b9d64c3e330753456acc5768df20562a481757c2801357f39961015e28e591e",
        "interfaces": "fdb422bcc8fc6952963024a3f3f4341ddf32177fe9f3ae6054db8e5a68e4953b",
        "bgp": "6655d6241b9dc87109e0037c534e1659e56ffd14a68e35e667434a0574250739",
        "ospf": "9fac4d37589e9665ac6062e25b6ba7f0f17f26c74c33924fed8dc01ffe4e9906",
        "admin_distances": "f466190c8f18da75ca8e753cea1bc5443cf93570a8725eef88a6a63ffb621a7c",
        "structural": "cd05d999fb7a4b3295a8a3e6b67cc15896bccf4d8c5dd296168bace3b6a44603",
        "device": "21a6cbc800e620fc4883c69db61c282ef5c536afe547170fdc9c8b27efefa97e",
        "template": "df7bd589112d4678697d61c86d9d42d65f0d14f5c5e417de1a92ae1ba94166ef",
        "substitution": (
            "10.200.0.1/30",
            "10.255.0.1/32",
            "10.255.0.1",
            "10.200.0.2",
            "10.255.0.1",
        ),
    },
    "junos": {
        "acls": {"EDGE": "6bd7f40a4f06453a8052cc379c9796754ec8f5856faaa88a49f3fa62e88715ea"},
        "route_maps": {},
        "static_routes": "3b9d64c3e330753456acc5768df20562a481757c2801357f39961015e28e591e",
        "interfaces": "198453f4866c1f935ef62728487908680fc12e30174d12868f6bc0c03928197b",
        "bgp": "0e25130e3a69c5921a02cc8c86085cff0f3c9f6ebe83efd8c7aef472735847fa",
        "ospf": "d795a68b1311482a338cd7988e9a11d34a353ba4ed6a85be1e02af9c42f2b85b",
        "admin_distances": "f466190c8f18da75ca8e753cea1bc5443cf93570a8725eef88a6a63ffb621a7c",
        "structural": "d354bc08dcd7222a4b64b85a07f2418d6c7c3fe8021ee9ecb4b7dce007db9e7c",
        "device": "b0716b34b748e8f6ec0d48035412c692676f41a85aaa0b40b152932d1542db92",
        "template": "91312a8d38ad723c03122a40f008e522596fae644e14182d96bbb1aecb8f799f",
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
        assert fp_module.FINGERPRINT_SCHEMA_VERSION == 2
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
