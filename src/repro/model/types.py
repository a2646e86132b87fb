"""Core value types shared across the vendor-independent model.

These mirror the vocabulary of the paper:

* :class:`Prefix` — an IPv4 prefix like ``10.9.0.0/16``.
* :class:`PrefixRange` — a prefix plus a closed range of lengths, e.g.
  ``(10.9.0.0/16, 16-32)``; this is the unit HeaderLocalize reasons in
  (§3.2) and what Cisco ``ip prefix-list ... le/ge`` and Juniper
  ``prefix-list``/``route-filter`` entries denote.
* :class:`Community` — a BGP standard community tag like ``10:10``.
* :class:`SourceSpan` — the configuration file lines a model object came
  from, which is what text localization reports.

Everything is an immutable, hashable value object so model components can
live in sets and be compared structurally (StructuralDiff relies on this).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotations only; no engine import
    from ..bdd import Bdd

__all__ = [
    "ip_to_int",
    "int_to_ip",
    "wildcard_to_prefix_len",
    "Prefix",
    "HostPrefix",
    "PrefixRange",
    "Community",
    "SourceSpan",
    "EquivalenceClass",
    "ConfigError",
]


class ConfigError(ValueError):
    """Raised for malformed configuration values or unparsable syntax."""


_IP_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


def ip_to_int(text: str) -> int:
    """Parse dotted-quad IPv4 text into a 32-bit integer.

    Raises :class:`ConfigError` on malformed input; parsers funnel all
    address syntax through here so errors carry consistent messages.
    """
    match = _IP_RE.match(text.strip())
    if not match:
        raise ConfigError(f"malformed IPv4 address: {text!r}")
    octets = [int(part) for part in match.groups()]
    if any(octet > 255 for octet in octets):
        raise ConfigError(f"IPv4 octet out of range in {text!r}")
    return (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]


def int_to_ip(value: int) -> str:
    """Render a 32-bit integer as dotted-quad text."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 integer out of range: {value}")
    return f"{(value >> 24) & 0xFF}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"


def wildcard_to_prefix_len(wildcard: int) -> Optional[int]:
    """Convert a contiguous Cisco wildcard mask to a prefix length.

    ``0.0.0.255`` -> 24; returns ``None`` for discontiguous wildcards,
    which our ACL model handles as general masked matches.
    """
    mask = (~wildcard) & 0xFFFFFFFF
    # A contiguous netmask is all-ones followed by all-zeros.
    length = 0
    seen_zero = False
    for bit in range(31, -1, -1):
        if (mask >> bit) & 1:
            if seen_zero:
                return None
            length += 1
        else:
            seen_zero = True
    return length


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 prefix: network address plus mask length, canonicalized.

    The network address is masked on construction, so ``10.9.1.1/16``
    normalizes to ``10.9.0.0/16`` — matching how routers interpret it.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ConfigError(f"prefix length out of range: {self.length}")
        if not 0 <= self.network <= 0xFFFFFFFF:
            raise ConfigError(f"prefix network out of range: {self.network}")
        masked = self.network & self.mask_int()
        if masked != self.network:
            object.__setattr__(self, "network", masked)

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` text (also accepts a bare address as /32)."""
        text = text.strip()
        if "/" in text:
            address, _, length_text = text.partition("/")
            try:
                length = int(length_text)
            except ValueError as exc:
                raise ConfigError(f"malformed prefix length in {text!r}") from exc
            return cls(ip_to_int(address), length)
        return cls(ip_to_int(text), 32)

    @classmethod
    def from_address_mask(cls, address: str, netmask: str) -> "Prefix":
        """Build from address + dotted netmask (``ip route`` syntax)."""
        mask = ip_to_int(netmask)
        length = wildcard_to_prefix_len((~mask) & 0xFFFFFFFF)
        if length is None:
            raise ConfigError(f"discontiguous netmask: {netmask!r}")
        return cls(ip_to_int(address), length)

    def mask_int(self) -> int:
        """The netmask of this prefix as a 32-bit integer."""
        if self.length == 0:
            return 0
        return (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF

    def contains_prefix(self, other: "Prefix") -> bool:
        """Whether ``other`` is a subnet of (or equal to) this prefix."""
        if other.length < self.length:
            return False
        return (other.network & self.mask_int()) == self.network

    def contains_address(self, address: int) -> bool:
        """Whether a single address falls inside this prefix."""
        return (address & self.mask_int()) == self.network

    def __str__(self) -> str:
        return f"{int_to_ip(self.network)}/{self.length}"


class HostPrefix(Prefix):
    """An interface address: a Prefix that keeps its host bits.

    ``Prefix`` canonicalizes by masking host bits; interface addresses
    must retain them (two backup routers on one subnet have different
    host addresses but the same connected route).  Only the subnet view
    (``Interface.subnet()``) masks.  Both parsers build interface
    addresses with this one model type, so a cached device unpickles
    without importing either parser; the class name is part of every
    interface fingerprint.
    """

    def __post_init__(self) -> None:  # skip canonicalization, keep checks
        if not 0 <= self.length <= 32:
            raise ConfigError(f"prefix length out of range: {self.length}")
        if not 0 <= self.network <= 0xFFFFFFFF:
            raise ConfigError(f"prefix network out of range: {self.network}")


@dataclass(frozen=True, order=True)
class PrefixRange:
    """A prefix plus a closed range of acceptable prefix lengths.

    A prefix ``p`` is a member iff ``p``'s network matches :attr:`prefix`
    and ``low <= p.length <= high`` (paper §3.2).  ``(0.0.0.0/0, 0-32)``,
    the universe, is :meth:`universe`.
    """

    prefix: Prefix
    low: int
    high: int

    def __post_init__(self) -> None:
        if not self.prefix.length <= self.low <= self.high <= 32:
            raise ConfigError(
                f"invalid length range {self.low}-{self.high} for {self.prefix}"
            )

    @classmethod
    def universe(cls) -> "PrefixRange":
        """The set of all prefixes: (0.0.0.0/0, 0-32)."""
        return cls(Prefix(0, 0), 0, 32)

    @classmethod
    def exact(cls, prefix: Prefix) -> "PrefixRange":
        """The singleton range matching exactly ``prefix``."""
        return cls(prefix, prefix.length, prefix.length)

    @classmethod
    def parse(cls, text: str) -> "PrefixRange":
        """Parse the display form ``a.b.c.d/len : lo-hi``."""
        prefix_text, _, range_text = text.partition(":")
        prefix = Prefix.parse(prefix_text)
        range_text = range_text.strip()
        if not range_text:
            return cls.exact(prefix)
        low_text, _, high_text = range_text.partition("-")
        try:
            return cls(prefix, int(low_text), int(high_text or low_text))
        except ValueError as exc:
            raise ConfigError(f"malformed prefix range {text!r}") from exc

    def is_universe(self) -> bool:
        """Whether this is (0.0.0.0/0, 0-32), the set of all prefixes."""
        return self.prefix.length == 0 and self.low == 0 and self.high == 32

    def contains_prefix(self, candidate: Prefix) -> bool:
        """Membership test from §3.2 (address match + length in range)."""
        if not self.low <= candidate.length <= self.high:
            return False
        return self.prefix.contains_prefix(candidate)

    def contains_range(self, other: "PrefixRange") -> bool:
        """Whether every member of ``other`` is a member of ``self``."""
        if not (self.low <= other.low and other.high <= self.high):
            return False
        return self.prefix.contains_prefix(other.prefix)

    def intersect(self, other: "PrefixRange") -> Optional["PrefixRange"]:
        """The prefix range of common members, or ``None`` when disjoint.

        The intersection of two prefix ranges is itself a prefix range
        (the longer of the two prefixes, when one contains the other, with
        the overlapped length interval) — the closure property HeaderLocalize
        relies on when it closes the configuration's ranges under
        intersection.
        """
        if self.prefix.contains_prefix(other.prefix):
            deeper = other.prefix
        elif other.prefix.contains_prefix(self.prefix):
            deeper = self.prefix
        else:
            return None
        low = max(self.low, other.low, deeper.length)
        high = min(self.high, other.high)
        if low > high:
            return None
        return PrefixRange(deeper, low, high)

    def __str__(self) -> str:
        return f"{self.prefix} : {self.low}-{self.high}"


_COMMUNITY_RE = re.compile(r"^(\d+):(\d+)$")


@dataclass(frozen=True, order=True)
class Community:
    """A standard BGP community ``asn:value``."""

    asn: int
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.asn <= 0xFFFF or not 0 <= self.value <= 0xFFFF:
            raise ConfigError(f"community parts out of range: {self.asn}:{self.value}")

    @classmethod
    def parse(cls, text: str) -> "Community":
        """Parse the ``asn:value`` text form."""
        match = _COMMUNITY_RE.match(text.strip())
        if not match:
            raise ConfigError(f"malformed community: {text!r}")
        return cls(int(match.group(1)), int(match.group(2)))

    def __str__(self) -> str:
        return f"{self.asn}:{self.value}"


@dataclass(frozen=True)
class SourceSpan:
    """Provenance of a model object: file, 1-based line range, raw text.

    Text localization (the ``Text`` row of Tables 2, 4 and 7) is exactly a
    rendering of these spans, so every parsed component carries one.
    """

    filename: str = "<config>"
    start_line: int = 0
    end_line: int = 0
    text: Tuple[str, ...] = field(default_factory=tuple)

    @classmethod
    def from_lines(
        cls, filename: str, numbered_lines: Iterable[Tuple[int, str]]
    ) -> "SourceSpan":
        """Build a span from ``(line_number, raw_text)`` pairs."""
        pairs = list(numbered_lines)
        if not pairs:
            return cls(filename=filename)
        numbers = [number for number, _ in pairs]
        return cls(
            filename=filename,
            start_line=min(numbers),
            end_line=max(numbers),
            text=tuple(raw for _, raw in pairs),
        )

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        """Union of two spans from the same file (text concatenated)."""
        if not self.text:
            return other
        if not other.text:
            return self
        return SourceSpan(
            filename=self.filename,
            start_line=min(self.start_line, other.start_line),
            end_line=max(self.end_line, other.end_line),
            text=self.text + other.text,
        )

    def render(self) -> str:
        """The raw configuration text, newline joined."""
        return "\n".join(self.text)

    def is_empty(self) -> bool:
        """Whether the span carries no text."""
        return not self.text


@dataclass(frozen=True)
class EquivalenceClass:
    """One path through a component: predicate, action, and source text.

    ``action`` is an :class:`~repro.model.acl.AclAction` for ACL paths
    and a :class:`~repro.encoding.classes.RouteMapAction` for route-map
    paths.  ``policy_name`` and ``step_name`` feed the Policy Name /
    Text rows of the report tables.  It lives with the model's value
    types, not with the encoders, because replay rebuilds it without
    loading them.
    """

    predicate: Bdd
    action: object
    policy_name: str
    step_name: str
    source: SourceSpan = field(default_factory=SourceSpan, compare=False)
    index: int = 0
    is_default: bool = False

    def text(self) -> str:
        """The text-localization payload for this path."""
        if not self.source.is_empty():
            return self.source.render()
        if self.is_default:
            return f"(implicit default of {self.policy_name})"
        return self.step_name
