"""MatchPolicies — pairing corresponding components across two routers (§4).

Campion compares components pairwise, so it first decides *which* route
map on router 1 corresponds to which on router 2.  The paper's heuristics,
reproduced here:

* **BGP route maps** — match the import (resp. export) policies applied
  to sessions with the same neighbor address; neighbors present on only
  one router are reported.
* **Redistribution route maps** — match by (target protocol, source
  protocol).
* **ACLs** — match by name; unmatched names are reported.
* **OSPF interfaces** — match by name when both routers have it,
  otherwise by equal connected subnet (backup routers usually differ in
  interface addressing but share subnets, hence the mask-based
  heuristic).

Users can override any of this by passing explicit pairs to ConfigDiff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..model.device import DeviceConfig
from ..model.types import int_to_ip
from .results import ComponentKind, UnmatchedPolicy

__all__ = ["RouteMapPair", "AclPair", "PolicyPairing", "match_policies"]


@dataclass(frozen=True)
class RouteMapPair:
    """Two corresponding route maps plus the context that paired them."""

    name1: str
    name2: str
    context: str  # e.g. "export to neighbor 10.0.0.1", "redistribute static into bgp"


@dataclass(frozen=True)
class AclPair:
    name1: str
    name2: str
    context: str = ""


@dataclass
class PolicyPairing:
    """Everything MatchPolicies decided for one router pair."""

    route_map_pairs: List[RouteMapPair] = field(default_factory=list)
    acl_pairs: List[AclPair] = field(default_factory=list)
    ospf_interface_pairing: Dict[str, str] = field(default_factory=dict)
    unmatched: List[UnmatchedPolicy] = field(default_factory=list)


def match_policies(device1: DeviceConfig, device2: DeviceConfig) -> PolicyPairing:
    """Run all pairing heuristics for a router pair."""
    pairing = PolicyPairing()
    _match_bgp_route_maps(device1, device2, pairing)
    _match_redistribution_maps(device1, device2, pairing)
    _match_acls(device1, device2, pairing)
    pairing.ospf_interface_pairing = match_ospf_interfaces(device1, device2)
    return pairing


def _match_bgp_route_maps(
    device1: DeviceConfig, device2: DeviceConfig, pairing: PolicyPairing
) -> None:
    """Pair import/export policies of sessions to the same neighbor.

    A policy applied on one side but not the other still yields a pair —
    against the *identity* route map (modeled as ``None`` name) — handled
    downstream by ConfigDiff, because "one router filters, the other
    does not" is precisely a behavioral difference to report.
    """
    bgp1, bgp2 = device1.bgp, device2.bgp
    if bgp1 is None or bgp2 is None:
        return  # process presence differences come from StructuralDiff
    neighbors1 = bgp1.neighbor_map()
    neighbors2 = bgp2.neighbor_map()
    for peer in sorted(set(neighbors1) & set(neighbors2)):
        neighbor1 = neighbors1[peer]
        neighbor2 = neighbors2[peer]
        for direction in ("import", "export"):
            policy1 = getattr(neighbor1, f"{direction}_policy")
            policy2 = getattr(neighbor2, f"{direction}_policy")
            if policy1 is None and policy2 is None:
                continue
            context = f"{direction} for neighbor {int_to_ip(peer)}"
            if policy1 is not None and policy2 is not None:
                pairing.route_map_pairs.append(RouteMapPair(policy1, policy2, context))
            # One-sided policies are surfaced via neighbor attribute
            # comparison in StructuralDiff ("has-import-policy").

    # Neighbor presence differences (reported here as unmatched since they
    # also block route-map pairing; StructuralDiff reports them too).
    for peer in sorted(set(neighbors1) ^ set(neighbors2)):
        present_on = device1.hostname if peer in neighbors1 else device2.hostname
        missing_on = device2.hostname if peer in neighbors1 else device1.hostname
        pairing.unmatched.append(
            UnmatchedPolicy(
                kind=ComponentKind.ROUTE_MAP,
                name=f"policies of neighbor {int_to_ip(peer)}",
                present_on=present_on,
                missing_on=missing_on,
                context="bgp neighbor missing on one router",
            )
        )


def _match_redistribution_maps(
    device1: DeviceConfig, device2: DeviceConfig, pairing: PolicyPairing
) -> None:
    """Pair redistribution filters by (target protocol, source protocol)."""
    for target, redists1, redists2 in (
        (
            "bgp",
            device1.bgp.redistributions if device1.bgp else (),
            device2.bgp.redistributions if device2.bgp else (),
        ),
        (
            "ospf",
            device1.ospf.redistributions if device1.ospf else (),
            device2.ospf.redistributions if device2.ospf else (),
        ),
    ):
        map1 = {r.from_protocol: r for r in redists1}
        map2 = {r.from_protocol: r for r in redists2}
        for protocol in sorted(set(map1) & set(map2)):
            policy1 = map1[protocol].route_map
            policy2 = map2[protocol].route_map
            if policy1 is not None and policy2 is not None:
                pairing.route_map_pairs.append(
                    RouteMapPair(
                        policy1,
                        policy2,
                        f"redistribute {protocol} into {target}",
                    )
                )


def _match_acls(
    device1: DeviceConfig, device2: DeviceConfig, pairing: PolicyPairing
) -> None:
    """Pair ACLs by name; report one-sided names."""
    names1 = set(device1.acls)
    names2 = set(device2.acls)
    for name in sorted(names1 & names2):
        pairing.acl_pairs.append(AclPair(name, name, "same name"))
    for name in sorted(names1 ^ names2):
        present_on = device1.hostname if name in names1 else device2.hostname
        missing_on = device2.hostname if name in names1 else device1.hostname
        pairing.unmatched.append(
            UnmatchedPolicy(
                kind=ComponentKind.ACL,
                name=name,
                present_on=present_on,
                missing_on=missing_on,
            )
        )


def match_ospf_interfaces(
    device1: DeviceConfig, device2: DeviceConfig
) -> Dict[str, str]:
    """Interface pairing: shared names first, then equal connected subnet.

    Returns a map from router-1 names to router-2 names covering every
    interface the heuristics could pair.  Backup routers' interfaces have
    different addresses but live on the same subnets, so the subnet
    heuristic is what usually fires cross-vendor (§4).
    """
    pairing: Dict[str, str] = {}
    names1 = set(device1.interfaces)
    names2 = set(device2.interfaces)
    for name in sorted(names1 & names2):
        pairing[name] = name

    unmatched1 = sorted(names1 - set(pairing))
    claimed2 = set(pairing.values())
    subnets2: Dict[object, str] = {}
    for name in sorted(names2):
        if name in claimed2:
            continue
        subnet = device2.interfaces[name].subnet()
        if subnet is not None and subnet not in subnets2:
            subnets2[subnet] = name
    for name in unmatched1:
        subnet = device1.interfaces[name].subnet()
        if subnet is None:
            continue
        partner = subnets2.pop(subnet, None)
        if partner is not None:
            pairing[name] = partner
    return pairing
