"""Vendor-independent model of packet-filtering ACLs.

Cisco extended access-lists and Juniper firewall filters are both
normalized to an ordered list of :class:`AclLine` objects with first-match
semantics and an explicit default action.  Each line keeps its
:class:`~repro.model.types.SourceSpan` so SemanticDiff can localize a
difference back to the original text (Table 7).

Matching model
--------------
A line matches a packet when *all* of its populated conditions hold:

* ``src`` / ``dst`` — address-plus-wildcard matches (the general Cisco
  form; contiguous wildcards are just prefixes),
* ``protocol`` — IP protocol number, ``None`` meaning any,
* ``src_ports`` / ``dst_ports`` — lists of inclusive port ranges,
  empty meaning any (only meaningful for TCP/UDP),
* ``icmp_type`` — ICMP type, ``None`` meaning any.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .types import ConfigError, Prefix, SourceSpan, int_to_ip

__all__ = [
    "AclAction",
    "IpWildcard",
    "PortRange",
    "AclLine",
    "Acl",
    "IP_PROTOCOL_NUMBERS",
    "IP_PROTOCOL_NAMES",
]

# The protocol keywords both dialects share, mapped to IANA numbers.
IP_PROTOCOL_NUMBERS = {
    "icmp": 1,
    "igmp": 2,
    "tcp": 6,
    "udp": 17,
    "gre": 47,
    "esp": 50,
    "ahp": 51,
    "ospf": 89,
    "pim": 103,
}
IP_PROTOCOL_NAMES = {number: name for name, number in IP_PROTOCOL_NUMBERS.items()}


class AclAction(enum.Enum):
    """Terminal disposition of a filter line."""

    PERMIT = "permit"
    DENY = "deny"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class IpWildcard:
    """Cisco-style address match: ``address`` with don't-care ``wildcard`` bits.

    A wildcard bit of 1 means "ignore this bit".  Prefix matches are the
    special case of contiguous wildcards; Juniper source/destination
    prefixes are converted to this form on parse.
    """

    address: int
    wildcard: int

    def __post_init__(self) -> None:
        if not 0 <= self.address <= 0xFFFFFFFF or not 0 <= self.wildcard <= 0xFFFFFFFF:
            raise ConfigError("IpWildcard parts out of 32-bit range")
        # Canonicalize: zero out don't-care bits of the address.
        canonical = self.address & ~self.wildcard & 0xFFFFFFFF
        if canonical != self.address:
            object.__setattr__(self, "address", canonical)

    @classmethod
    def any(cls) -> "IpWildcard":
        """The match-everything wildcard."""
        return cls(0, 0xFFFFFFFF)

    @classmethod
    def host(cls, address: int) -> "IpWildcard":
        """A single-address (host) match."""
        return cls(address, 0)

    @classmethod
    def from_prefix(cls, prefix: Prefix) -> "IpWildcard":
        """The wildcard matching exactly one prefix's addresses."""
        return cls(prefix.network, (~prefix.mask_int()) & 0xFFFFFFFF)

    def is_any(self) -> bool:
        """Whether every address matches."""
        return self.wildcard == 0xFFFFFFFF

    def matches(self, address: int) -> bool:
        """Concrete membership test, used by tests as the ground truth."""
        care = (~self.wildcard) & 0xFFFFFFFF
        return (address & care) == self.address

    def overlaps(self, other: "IpWildcard") -> bool:
        """Whether some address matches both wildcards: they agree on
        every bit that both of them care about."""
        return (
            (self.address ^ other.address) & ~self.wildcard & ~other.wildcard
        ) & 0xFFFFFFFF == 0

    def as_prefix(self) -> Optional[Prefix]:
        """This wildcard as a Prefix if contiguous, else ``None``."""
        from .types import wildcard_to_prefix_len

        length = wildcard_to_prefix_len(self.wildcard)
        if length is None:
            return None
        return Prefix(self.address, length)

    def __str__(self) -> str:
        prefix = self.as_prefix()
        if prefix is not None:
            return str(prefix)
        return f"{int_to_ip(self.address)} wildcard {int_to_ip(self.wildcard)}"


@dataclass(frozen=True, order=True)
class PortRange:
    """An inclusive range of layer-4 ports."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high <= 0xFFFF:
            raise ConfigError(f"invalid port range {self.low}-{self.high}")

    @classmethod
    def single(cls, port: int) -> "PortRange":
        """The one-port range."""
        return cls(port, port)

    def contains(self, port: int) -> bool:
        """Whether ``port`` falls inside the range."""
        return self.low <= port <= self.high

    def __str__(self) -> str:
        return str(self.low) if self.low == self.high else f"{self.low}-{self.high}"


def _ports_overlap(ranges1: Tuple[PortRange, ...], ranges2: Tuple[PortRange, ...]) -> bool:
    """Whether two port-range lists share a port (an empty list is any)."""
    if not ranges1 or not ranges2:
        return True
    return any(
        r1.low <= r2.high and r2.low <= r1.high for r1 in ranges1 for r2 in ranges2
    )


@dataclass(frozen=True)
class AclLine:
    """One first-match filter rule."""

    action: AclAction
    src: IpWildcard = field(default_factory=IpWildcard.any)
    dst: IpWildcard = field(default_factory=IpWildcard.any)
    protocol: Optional[int] = None
    src_ports: Tuple[PortRange, ...] = ()
    dst_ports: Tuple[PortRange, ...] = ()
    icmp_type: Optional[int] = None
    name: str = ""
    source: SourceSpan = field(default_factory=SourceSpan, compare=False)

    def matches_concrete(
        self,
        src_ip: int,
        dst_ip: int,
        protocol: int,
        src_port: int = 0,
        dst_port: int = 0,
        icmp_type: int = 0,
    ) -> bool:
        """Concrete packet match — the oracle the BDD encoder is tested
        against (see ``tests/encoding/test_acl_encoder.py``)."""
        if not self.src.matches(src_ip) or not self.dst.matches(dst_ip):
            return False
        if self.protocol is not None and protocol != self.protocol:
            return False
        if self.src_ports and not any(r.contains(src_port) for r in self.src_ports):
            return False
        if self.dst_ports and not any(r.contains(dst_port) for r in self.dst_ports):
            return False
        if self.icmp_type is not None and icmp_type != self.icmp_type:
            return False
        return True

    def overlaps(self, other: "AclLine") -> bool:
        """Whether some packet matches both lines.

        Exact, without building BDDs: a line's match set is a product of
        per-field sets, so two lines share a packet iff every field's
        sets intersect.
        """
        if (
            self.protocol is not None
            and other.protocol is not None
            and self.protocol != other.protocol
        ):
            return False
        if not self.dst.overlaps(other.dst) or not self.src.overlaps(other.src):
            return False
        if not _ports_overlap(self.dst_ports, other.dst_ports):
            return False
        if not _ports_overlap(self.src_ports, other.src_ports):
            return False
        return (
            self.icmp_type is None
            or other.icmp_type is None
            or self.icmp_type == other.icmp_type
        )

    def describe(self) -> str:
        """One-line human summary used in reports when raw text is absent."""
        parts = [str(self.action)]
        parts.append(IP_PROTOCOL_NAMES.get(self.protocol, str(self.protocol)) if self.protocol is not None else "ip")
        parts.append(f"src {self.src}")
        if self.src_ports:
            parts.append("sport " + ",".join(str(r) for r in self.src_ports))
        parts.append(f"dst {self.dst}")
        if self.dst_ports:
            parts.append("dport " + ",".join(str(r) for r in self.dst_ports))
        if self.icmp_type is not None:
            parts.append(f"icmp-type {self.icmp_type}")
        return " ".join(parts)


@dataclass(frozen=True)
class Acl:
    """An ordered packet filter with first-match semantics."""

    name: str
    lines: Tuple[AclLine, ...] = ()
    default_action: AclAction = AclAction.DENY
    source: SourceSpan = field(default_factory=SourceSpan, compare=False)

    def evaluate_concrete(
        self,
        src_ip: int,
        dst_ip: int,
        protocol: int,
        src_port: int = 0,
        dst_port: int = 0,
        icmp_type: int = 0,
    ) -> AclAction:
        """First-match evaluation on a concrete packet (testing oracle)."""
        for line in self.lines:
            if line.matches_concrete(src_ip, dst_ip, protocol, src_port, dst_port, icmp_type):
                return line.action
        return self.default_action

    def __len__(self) -> int:
        return len(self.lines)
