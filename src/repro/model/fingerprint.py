"""Canonical component fingerprints — content addresses for the model.

The incremental-analysis engine (``repro.core.memo``, ``repro.cache``)
replays a memoized diff result into any device pair whose components
have the *same fingerprints*.  That is only sound if fingerprint
equality implies "SemanticDiff/StructuralDiff would compare identical
content", so the fingerprint is a SHA-256 over a canonical recursive
serialization of the model dataclasses that:

* **excludes every SourceSpan** — text provenance (file names, line
  numbers, raw lines) does not influence which differences exist, only
  how they are *presented*; dropping spans maximizes sharing across
  templated fleets whose identical stanzas sit at different line
  numbers.  (Components replayed with a non-zero difference count are
  re-localized live, so spans in reports are always the real ones.)
* **excludes identity-only device attributes** — hostname, vendor,
  filename, raw lines, and parse diagnostics name the device, they do
  not change component semantics (no diff consults ``vendor``; reports
  carry hostnames at the top level only).
* **includes names and every semantic field** — component names drive
  MatchPolicies' pairing, so they are part of the compared content;
  resolved sub-objects (prefix lists inside route-map matches, …) are
  embedded in the model and canonicalized recursively.

``FINGERPRINT_SCHEMA_VERSION`` is mixed into every digest: any change
to the canonicalization (or to the model's semantics) must bump it,
which atomically invalidates every memo table and on-disk cache entry
keyed by the old fingerprints.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

from .types import Prefix, SourceSpan, int_to_ip

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (device -> here)
    from .device import DeviceConfig

__all__ = [
    "FINGERPRINT_SCHEMA_VERSION",
    "ComponentFingerprints",
    "TemplateHole",
    "DeviceTemplate",
    "acl_fingerprint",
    "canonical_form",
    "fingerprint_value",
    "compute_fingerprints",
    "compute_template",
    "partition_by_device_fingerprint",
    "partition_by_template_fingerprint",
]

#: Bump whenever canonicalization or model semantics change; stale
#: fingerprints must never collide with current ones.
#: v2: both parsers' interface addresses are one model type,
#: ``HostPrefix`` (its class name enters every interface digest).
FINGERPRINT_SCHEMA_VERSION = 2


def canonical_form(value: object) -> object:
    """A stable, span-free, order-insensitive representation of ``value``.

    Dataclasses become ``(classname, (field, canon), ...)`` tuples with
    SourceSpan-valued fields dropped; enums become their class and
    member name; dicts/sets are sorted so insertion order never leaks
    into the digest.
    """
    return _walk(value, None)


def fingerprint_value(value: object, kind: str = "") -> str:
    """SHA-256 hex digest of ``value``'s canonical form (+ schema/kind)."""
    material = repr((FINGERPRINT_SCHEMA_VERSION, kind, canonical_form(value)))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def acl_fingerprint(acl: object) -> str:
    """The component fingerprint of one ACL."""
    return fingerprint_value(acl, kind="acl")


@dataclass(frozen=True)
class ComponentFingerprints:
    """Per-component content addresses for one :class:`DeviceConfig`.

    ``structural`` combines everything StructuralDiff consumes (static
    routes, interfaces — which determine connected routes and the OSPF
    interface pairing — BGP and OSPF processes, admin distances);
    ``device`` combines every component, so equal device fingerprints
    mean ConfigDiff would find zero differences between the devices.
    """

    acls: Dict[str, str]
    route_maps: Dict[str, str]
    static_routes: str
    interfaces: str
    bgp: str
    ospf: str
    admin_distances: str
    structural: str
    device: str

    def route_map(self, name: str) -> str:
        """The fingerprint of one named route map."""
        return self.route_maps[name]

    def acl(self, name: str) -> str:
        """The fingerprint of one named ACL."""
        return self.acls[name]


def partition_by_device_fingerprint(
    devices,
) -> "Dict[str, Tuple[str, ...]]":
    """Hostnames grouped by device fingerprint, each group sorted.

    The device fingerprint aggregates every component fingerprint, so
    two devices landing in the same group would produce a zero-difference
    ConfigDiff report — the soundness premise of fleet symmetry
    compression (``repro.core.fleet``).  Each group is sorted by
    hostname, making ``group[0]`` the deterministic class
    representative (lexicographically-smallest hostname tie-break —
    same convention as medoid election).
    """
    groups: Dict[str, list] = {}
    for device in devices:
        groups.setdefault(device.fingerprints.device, []).append(
            device.hostname
        )
    return {
        fingerprint: tuple(sorted(hostnames))
        for fingerprint, hostnames in groups.items()
    }


# --------------------------------------------------------------------------
# Template fingerprints (near-symmetry)
#
# The device fingerprint above demands byte-identical semantic content, so
# a templated fleet where every leaf has its own loopback/router-id/peer
# addresses degenerates to singleton classes.  The *template* fingerprint
# is a second canonicalization pass that abstracts exactly the rewritable
# literals below into numbered holes, yielding per-device
# ``(template_fingerprint, substitution)``.  Two devices with equal
# template fingerprints are equal configurations *modulo* the hole
# values; ``repro.core.near_symmetry`` proves when a pair outcome can be
# replayed across such devices.
#
# The allowlist is deliberately tiny and positional — `(classname,
# fieldname)` pairs whose values the semantic diff either never reads
# (router-ids are excluded from ``process_attributes``; ``update_source``
# is excluded from ``BgpNeighbor.attributes``) or reads only through
# within-tag equality (interface subnets via connected-route symmetric
# difference; BGP peer addresses via peer-keyed neighbor pairing).  ACL
# and route-map match semantics are NEVER holed: their literals feed the
# BDD header spaces, where a changed address changes the answer.

#: ``(classname, fieldname) -> hole kind`` — the full rewritable-literal
#: allowlist.  Kinds whose values the diff compares for within-tag
#: equality carry *atoms* (see :class:`TemplateHole`); the rest are free.
_HOLE_FIELDS: Dict[Tuple[str, str], str] = {
    ("Interface", "address"): "interface-address",
    ("BgpNeighbor", "peer_ip"): "bgp-peer",
    ("BgpNeighbor", "update_source"): "bgp-update-source",
    ("BgpProcess", "router_id"): "router-id",
    ("OspfProcess", "router_id"): "router-id",
}

#: ``update_source`` may name an interface ("Loopback0") instead of an
#: address; only IPv4 literals are rewritable, so only those are holed.
_IPV4_LITERAL = re.compile(r"^(?:\d{1,3}\.){3}\d{1,3}$")


@dataclass(frozen=True)
class TemplateHole:
    """One abstracted literal in a device template.

    ``kind`` is the allowlist entry that produced the hole; ``value`` is
    the concrete literal rendered as text (the substitution maps hole
    index -> value).  ``atoms`` are the ``(tag, literal)`` equality
    atoms the semantic diff *does* consult for this hole — empty for
    free holes (router-ids, update-sources) whose values never reach a
    comparison, ``("subnet", ...)`` for interface addresses (connected
    routes compare by subnet), ``("peer", ...)`` for BGP neighbor
    addresses (neighbors pair by peer address).  Replay of a pair
    outcome is sound only when both pairs induce the same joint
    first-occurrence equality pattern over their atom sequences.
    """

    kind: str
    value: str
    atoms: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class DeviceTemplate:
    """``(template_fingerprint, holes)`` for one device.

    Devices with equal :attr:`fingerprint` are identical configurations
    up to the hole values; :attr:`substitution` recovers the concrete
    literals in hole order.
    """

    fingerprint: str
    holes: Tuple[TemplateHole, ...]

    @property
    def substitution(self) -> Tuple[str, ...]:
        """Hole values in hole order (the device's parameter vector)."""
        return tuple(hole.value for hole in self.holes)

    @property
    def kind_sequence(self) -> Tuple[str, ...]:
        """Hole kinds in hole order (equal across a template class)."""
        return tuple(hole.kind for hole in self.holes)

    @property
    def atom_sequence(self) -> Tuple[Tuple[str, str], ...]:
        """All equality atoms, flattened in hole order."""
        return tuple(
            atom for hole in self.holes for atom in hole.atoms
        )


def _hole_for(kind: str, attribute: object) -> "TemplateHole | None":
    """The hole replacing ``attribute``, or ``None`` to keep it concrete.

    ``None``-valued fields are never holed: absence vs presence of an
    address is semantic (an unaddressed interface contributes no
    connected route), so it stays in the template.
    """
    if attribute is None:
        return None
    if kind == "interface-address":
        # Interface addresses retain their host bits (see
        # repro.model.types.HostPrefix), but the diff only ever reads the *masked
        # subnet* (connected routes, OSPF interface pairing) — so the
        # hole value keeps the host form for substitution replay while
        # the equality atom is the subnet.  Masking in the atom is a
        # soundness requirement, not an optimization: two distinct host
        # addresses on one subnet are equal where the diff looks.
        subnet = Prefix(attribute.network, attribute.length)
        return TemplateHole(
            kind=kind,
            value=str(attribute),
            atoms=(("subnet", str(subnet)),),
        )
    if kind == "bgp-peer":
        value = int_to_ip(attribute)
        return TemplateHole(kind=kind, value=value, atoms=(("peer", value),))
    if kind == "bgp-update-source":
        if not isinstance(attribute, str) or not _IPV4_LITERAL.match(
            attribute
        ):
            return None
        return TemplateHole(kind=kind, value=attribute)
    if kind == "router-id":
        return TemplateHole(kind=kind, value=int_to_ip(attribute))
    raise AssertionError(f"unknown hole kind {kind!r}")  # pragma: no cover


# Node shapes of the canonical walk.  Each type is classified once, in
# the precedence order span -> dataclass -> enum -> dict -> set ->
# list/tuple -> atom, so the walk never calls ``is_dataclass`` or
# ``fields`` per node.
_SPAN, _DATACLASS, _ENUM, _DICT, _SET, _SEQUENCE, _ATOM = range(7)

#: type -> shape tuple; dataclasses carry ``(classname, ((field,
#: hole kind or None), ...))``, enums their class name.
_SHAPES: Dict[type, tuple] = {}


def _shape_of(cls: type) -> tuple:
    """The ``_SHAPES`` entry for ``cls``, computed once per type."""
    if issubclass(cls, SourceSpan):
        return (_SPAN,)
    if dataclasses.is_dataclass(cls):
        name = cls.__name__
        fields = tuple(
            (field.name, _HOLE_FIELDS.get((name, field.name)))
            for field in dataclasses.fields(cls)
        )
        return (_DATACLASS, name, fields)
    if issubclass(cls, enum.Enum):
        return (_ENUM, cls.__name__)
    if issubclass(cls, dict):
        return (_DICT,)
    if issubclass(cls, (set, frozenset)):
        return (_SET,)
    if issubclass(cls, (list, tuple)):
        return (_SEQUENCE,)
    return (_ATOM,)


def _walk(value: object, holes: "list | None") -> object:
    """The canonical form of ``value``; with ``holes``, the template form.

    Without ``holes`` this is :func:`canonical_form`.  With a list, an
    allowlisted ``(classname, field)`` whose value qualifies becomes
    ``("<hole>", index, kind)`` and the concrete literal is appended to
    ``holes``.  Hole numbering is therefore a pure function of the
    template structure: two devices with equal template fingerprints
    enumerate their holes in the same positions.
    """
    cls = type(value)
    shape = _SHAPES.get(cls)
    if shape is None:
        shape = _SHAPES[cls] = _shape_of(cls)
    tag = shape[0]
    if tag == _ATOM:
        return value
    if tag == _DATACLASS:
        fields = []
        for name, kind in shape[2]:
            attribute = getattr(value, name)
            if isinstance(attribute, SourceSpan):
                continue
            if kind is not None and holes is not None:
                hole = _hole_for(kind, attribute)
                if hole is not None:
                    fields.append((name, ("<hole>", len(holes), kind)))
                    holes.append(hole)
                    continue
            fields.append((name, _walk(attribute, holes)))
        return (shape[1], tuple(fields))
    if tag == _SEQUENCE:
        return tuple(_walk(item, holes) for item in value)
    if tag == _SPAN:
        return ("<span>",)
    if tag == _ENUM:
        return ("<enum>", shape[1], value.name)
    if tag == _DICT:
        return (
            "<dict>",
            tuple(
                (_walk(key, None), _walk(value[key], holes))
                for key in sorted(value, key=repr)
            ),
        )
    # A set: order by the hole-free canonical form so hole numbering
    # never depends on set iteration order.  (No allowlisted field lives
    # inside a set today; this keeps the walk total regardless.)
    if holes is None:
        return ("<set>", tuple(sorted((_walk(item, None) for item in value), key=repr)))
    ordered = sorted(value, key=lambda item: repr(_walk(item, None)))
    return ("<set>", tuple(_walk(item, holes) for item in ordered))


def compute_template(device: "DeviceConfig") -> DeviceTemplate:
    """The device's template fingerprint and hole substitution.

    Only the structural components containing allowlisted fields are
    template-walked (interfaces, BGP, OSPF); ACLs, route maps, static
    routes, and admin distances enter by their exact component
    fingerprints — their literals are match semantics and must never be
    abstracted.
    """
    holes: list = []
    interfaces = _walk(device.interfaces, holes)
    bgp = _walk(device.bgp, holes)
    ospf = _walk(device.ospf, holes)
    fingerprints = device.fingerprints
    material = (
        tuple(sorted(fingerprints.acls.items())),
        tuple(sorted(fingerprints.route_maps.items())),
        fingerprints.static_routes,
        fingerprints.admin_distances,
        interfaces,
        bgp,
        ospf,
    )
    return DeviceTemplate(
        fingerprint=fingerprint_value(material, kind="template"),
        holes=tuple(holes),
    )


def partition_by_template_fingerprint(
    devices,
) -> "Dict[str, Tuple[str, ...]]":
    """Hostnames grouped by template fingerprint, each group sorted.

    The near-symmetry analogue of
    :func:`partition_by_device_fingerprint`: devices in one group are
    identical configurations modulo their hole substitutions.  Groups
    are sorted by hostname, so ``group[0]`` is the deterministic class
    representative.
    """
    groups: Dict[str, list] = {}
    for device in devices:
        groups.setdefault(device.template.fingerprint, []).append(
            device.hostname
        )
    return {
        fingerprint: tuple(sorted(hostnames))
        for fingerprint, hostnames in groups.items()
    }


def compute_fingerprints(
    device: "DeviceConfig", acl_digests: "Dict[str, str] | None" = None
) -> ComponentFingerprints:
    """Fingerprint every component of a parsed device.

    Called once at parse time and cached on the model; cost is one
    linear canonicalization pass, trivial next to a single BDD diff.
    ``acl_digests`` holds digests the parser already knows (ACLs built
    from one memoized stanza, see ``repro.parsers.common.StanzaMemo``);
    those ACLs are not walked again.
    """
    known = acl_digests or {}
    acls = {
        name: known.get(name) or acl_fingerprint(acl)
        for name, acl in device.acls.items()
    }
    route_maps = {
        name: fingerprint_value(route_map, kind="route_map")
        for name, route_map in device.route_maps.items()
    }
    # Static routes are a set, not a sequence: sort by canonical form
    # (not repr, which would leak span line numbers into the order).
    static_routes = fingerprint_value(
        tuple(
            sorted(
                (canonical_form(route) for route in device.static_routes),
                key=repr,
            )
        ),
        kind="static_routes",
    )
    interfaces = fingerprint_value(device.interfaces, kind="interfaces")
    bgp = fingerprint_value(device.bgp, kind="bgp")
    ospf = fingerprint_value(device.ospf, kind="ospf")
    admin_distances = fingerprint_value(
        device.admin_distances, kind="admin_distances"
    )
    structural = fingerprint_value(
        (static_routes, interfaces, bgp, ospf, admin_distances),
        kind="structural",
    )
    combined: Tuple = (
        tuple(sorted(acls.items())),
        tuple(sorted(route_maps.items())),
        structural,
    )
    return ComponentFingerprints(
        acls=acls,
        route_maps=route_maps,
        static_routes=static_routes,
        interfaces=interfaces,
        bgp=bgp,
        ospf=ospf,
        admin_distances=admin_distances,
        structural=structural,
        device=fingerprint_value(combined, kind="device"),
    )
