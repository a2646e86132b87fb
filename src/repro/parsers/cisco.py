"""Cisco IOS configuration parser.

Parses the IOS feature subset Campion models (Table 1) into the
vendor-independent :class:`~repro.model.device.DeviceConfig`:

* interfaces (``interface`` blocks with addresses, ACL bindings, OSPF
  interface attributes, shutdown),
* static routes (``ip route``),
* prefix lists (``ip prefix-list``, with ``ge``/``le``),
* community lists (``ip community-list standard|expanded``),
* as-path access lists (``ip as-path access-list``),
* numbered and named extended ACLs (``access-list N`` /
  ``ip access-list extended NAME``),
* route maps (``route-map`` stanzas with ``match``/``set``),
* BGP (``router bgp`` with neighbors, reflector clients, send-community,
  redistribution, ``distance bgp``),
* OSPF (``router ospf`` with ``network ... area``, passive interfaces,
  redistribution, reference bandwidth, ``distance``).

Unsupported lines produce :class:`~repro.parsers.common.ParserWarning`
records instead of failures — mirroring how Campion degrades on IOS
variants it does not fully support (§5.1, the fifth BGP bug).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..model import (
    Acl,
    AclAction,
    AclLine,
    Action,
    AsPathList,
    AsPathListEntry,
    BgpNeighbor,
    BgpProcess,
    Community,
    CommunityList,
    CommunityListEntry,
    DeviceConfig,
    Interface,
    IpWildcard,
    MatchAsPath,
    MatchCommunities,
    MatchPrefixList,
    MatchTag,
    OspfInterfaceSettings,
    OspfProcess,
    OspfRedistribution,
    PortRange,
    Prefix,
    PrefixList,
    PrefixListEntry,
    PrefixRange,
    Redistribution,
    RouteMap,
    RouteMapClause,
    SetAsPathPrepend,
    SetCommunities,
    SetLocalPref,
    SetMed,
    SetNextHop,
    SetTag,
    SourceSpan,
    StaticRoute,
    ip_to_int,
)
from .. import perf
from ..model.acl import IP_PROTOCOL_NUMBERS
from ..model.types import ConfigError, HostPrefix
from .common import (
    NumberedLine,
    ParseContext,
    StanzaEntry,
    StanzaMemo,
    number_lines,
)

__all__ = ["parse_cisco"]


def parse_cisco(
    text: str,
    filename: str = "<cisco-config>",
    strict: bool = False,
    memo: Optional[StanzaMemo] = None,
) -> DeviceConfig:
    """Parse a Cisco IOS configuration into a DeviceConfig.

    In the default lenient mode an unparseable stanza is recorded as an
    error-severity :class:`~repro.diagnostics.Diagnostic` (with line
    provenance) on the returned device and skipped; ``strict=True``
    restores fail-fast :class:`ConfigError` behavior.  ``memo`` shares
    parsed ACL stanzas across the configurations of one run.
    """
    with perf.timer("parse.cisco"):
        parser = _CiscoParser(text, filename, strict, memo or StanzaMemo())
        device = parser.parse()
    perf.add("parse.cisco.lines", len(parser.lines))
    with perf.timer("parse.fingerprint"):
        device.seal(parser.acl_digests())
    return device


class _CiscoParser:
    def __init__(
        self, text: str, filename: str, strict: bool, memo: StanzaMemo
    ):
        self.lines = number_lines(text)
        self.context = ParseContext(filename, strict=strict)
        self.memo = memo
        self.device = DeviceConfig(
            hostname="cisco-router", vendor="cisco", filename=filename
        )
        self.device.raw_lines = tuple(line.text for line in self.lines)
        # Collected during the pass, assembled at the end.
        self._prefix_entries: Dict[str, List[PrefixListEntry]] = {}
        self._community_entries: Dict[str, List[CommunityListEntry]] = {}
        self._as_path_entries: Dict[str, List[AsPathListEntry]] = {}
        self._acl_lines: Dict[str, List[AclLine]] = {}
        # Per ACL name: one entry per named block, the memo entry of a
        # block that was memoized and None for one that was not.
        self._acl_blocks: Dict[str, List[Optional[StanzaEntry]]] = {}
        self._numbered_acls: Set[str] = set()
        self._route_map_clauses: Dict[str, List[Tuple[int, RouteMapClause]]] = {}
        self._bgp: Optional[Dict] = None
        self._ospf: Optional[Dict] = None
        self._ospf_networks: List[Tuple[IpWildcard, int]] = []
        self._interface_ospf: Dict[str, Dict] = {}

    @property
    def warnings(self):
        return self.context.warnings

    # -- main loop ---------------------------------------------------------
    def parse(self) -> DeviceConfig:
        index = 0
        while index < len(self.lines):
            line = self.lines[index]
            stripped = line.stripped
            if not stripped or stripped.startswith("!"):
                index += 1
                continue
            tokens = line.tokens()
            head = tokens[0]
            try:
                if head == "hostname" and len(tokens) >= 2:
                    self.device.hostname = tokens[1]
                    index += 1
                elif head == "interface":
                    index = self._parse_interface(index)
                elif stripped.startswith("ip route "):
                    self._parse_static_route(line)
                    index += 1
                elif stripped.startswith("ip prefix-list "):
                    self._parse_prefix_list(line)
                    index += 1
                elif stripped.startswith("ip community-list "):
                    self._parse_community_list(line)
                    index += 1
                elif stripped.startswith("ip as-path access-list "):
                    self._parse_as_path_list(line)
                    index += 1
                elif head == "access-list":
                    self._parse_numbered_acl_line(line)
                    index += 1
                elif stripped.startswith("ip access-list extended "):
                    index = self._parse_named_acl(index)
                elif head == "route-map":
                    index = self._parse_route_map(index)
                elif stripped.startswith("router bgp "):
                    index = self._parse_bgp(index)
                elif stripped.startswith("router ospf "):
                    index = self._parse_ospf(index)
                else:
                    self.context.warn(line, "unsupported top-level statement")
                    index += 1
            except (ConfigError, ValueError, IndexError, KeyError) as exc:
                # A stanza Campion models but could not parse: record it
                # (raising in strict mode) and skip the whole block so a
                # bad header does not shower its body in bogus warnings.
                message = str(exc)
                location = f"{self.context.filename}:{line.number}: "
                if message.startswith(location):
                    message = message[len(location) :]
                self.context.error(line, f"parse error: {message}")
                index = max(index + 1, self._block_end(index))
        return self._assemble()

    def _block_end(self, start: int) -> int:
        """First index after ``start`` whose line leaves the block.

        IOS blocks end at a ``!`` separator or the next non-indented,
        non-continuation statement.
        """
        index = start + 1
        while index < len(self.lines):
            line = self.lines[index]
            stripped = line.stripped
            if stripped.startswith("!"):
                return index
            if stripped and line.indent == 0:
                return index
            index += 1
        return index

    # -- interfaces --------------------------------------------------------------
    def _parse_interface(self, start: int) -> int:
        header = self.lines[start]
        tokens = header.tokens()
        if len(tokens) < 2:
            raise self.context.fail(header, "interface needs a name")
        name = tokens[1]
        end = self._block_end(start)
        address: Optional[Prefix] = None
        description = ""
        shutdown = False
        acl_in: Optional[str] = None
        acl_out: Optional[str] = None
        ospf: Dict = {}
        for line in self.lines[start + 1 : end]:
            words = line.tokens()
            if not words:
                continue
            if words[:2] == ["ip", "address"] and len(words) >= 4:
                address = Prefix.from_address_mask(words[2], words[3])
                # Interface addresses keep their host bits for display but
                # the model needs the host address; store as Prefix of the
                # subnet with the host address embedded via a /32-aware
                # Prefix (subnet prefix used for connected routes).
                host = ip_to_int(words[2])
                mask_len = address.length
                address = HostPrefix(host, mask_len)
            elif words[0] == "description":
                description = " ".join(words[1:])
            elif words[0] == "shutdown":
                shutdown = True
            elif words[:2] == ["ip", "access-group"] and len(words) >= 4:
                if words[3] == "in":
                    acl_in = words[2]
                elif words[3] == "out":
                    acl_out = words[2]
            elif words[:2] == ["ip", "ospf"] and len(words) >= 4:
                if words[2] == "cost":
                    ospf["cost"] = int(words[3])
                elif words[2] == "hello-interval":
                    ospf["hello_interval"] = int(words[3])
                elif words[2] == "dead-interval":
                    ospf["dead_interval"] = int(words[3])
                elif words[2] == "network" and len(words) >= 4:
                    ospf["network_type"] = words[3]
                else:
                    self.context.warn(line, "unsupported ip ospf attribute")
            else:
                self.context.warn(line, "unsupported interface statement")
        span = SourceSpan.from_lines(
            self.context.filename,
            [(l.number, l.text.rstrip()) for l in self.lines[start:end]],
        )
        self.device.interfaces[name] = Interface(
            name=name,
            address=address,
            description=description,
            shutdown=shutdown,
            acl_in=acl_in,
            acl_out=acl_out,
            source=span,
        )
        if ospf:
            self._interface_ospf[name] = ospf
        return end

    # -- static routes ----------------------------------------------------------------
    def _parse_static_route(self, line: NumberedLine) -> None:
        tokens = line.tokens()
        # ip route <addr> <mask> (<next-hop>|<interface>) [distance] [tag N] [name X]
        if len(tokens) < 5:
            raise self.context.fail(line, "ip route needs address, mask, target")
        prefix = Prefix.from_address_mask(tokens[2], tokens[3])
        target = tokens[4]
        next_hop: Optional[int] = None
        interface: Optional[str] = None
        try:
            next_hop = ip_to_int(target)
        except ConfigError:
            # Normalize drop interfaces so Cisco Null0 and JunOS discard
            # compare equal (they denote the same behavior).
            interface = "discard" if target.lower().startswith("null") else target
        distance = 1
        tag: Optional[int] = None
        rest = tokens[5:]
        position = 0
        while position < len(rest):
            word = rest[position]
            if word == "tag" and position + 1 < len(rest):
                tag = int(rest[position + 1])
                position += 2
            elif word == "name" and position + 1 < len(rest):
                position += 2
            elif word.isdigit():
                distance = int(word)
                position += 1
            else:
                self.context.warn(line, f"unsupported ip route option {word!r}")
                position += 1
        self.device.static_routes.append(
            StaticRoute(
                prefix=prefix,
                next_hop=next_hop,
                interface=interface,
                admin_distance=distance,
                tag=tag,
                source=line.span(self.context.filename),
            )
        )

    # -- prefix lists -------------------------------------------------------------------
    def _parse_prefix_list(self, line: NumberedLine) -> None:
        tokens = line.tokens()
        # ip prefix-list NAME [seq N] permit|deny P/L [ge X] [le Y]
        position = 2
        name = tokens[position]
        position += 1
        if position < len(tokens) and tokens[position] == "seq":
            position += 2
        if position >= len(tokens) or tokens[position] not in ("permit", "deny"):
            raise self.context.fail(line, "prefix-list needs permit/deny")
        action = Action.PERMIT if tokens[position] == "permit" else Action.DENY
        position += 1
        prefix = Prefix.parse(tokens[position])
        position += 1
        low = prefix.length
        high = prefix.length
        seen_ge = seen_le = False
        while position < len(tokens):
            word = tokens[position]
            if word == "ge" and position + 1 < len(tokens):
                low = int(tokens[position + 1])
                seen_ge = True
                position += 2
            elif word == "le" and position + 1 < len(tokens):
                high = int(tokens[position + 1])
                seen_le = True
                position += 2
            else:
                self.context.warn(line, f"unsupported prefix-list option {word!r}")
                position += 1
        if seen_ge and not seen_le:
            high = 32  # ge without le allows any longer length
        entry = PrefixListEntry(
            action=action,
            range=PrefixRange(prefix, low, high),
            source=line.span(self.context.filename),
        )
        self._prefix_entries.setdefault(name, []).append(entry)

    # -- community lists ----------------------------------------------------------------
    def _parse_community_list(self, line: NumberedLine) -> None:
        tokens = line.tokens()
        # ip community-list standard NAME permit c1 [c2 ...]
        # ip community-list expanded NAME permit <regex>
        kind = tokens[2]
        if kind in ("standard", "expanded"):
            name = tokens[3]
            action_word = tokens[4]
            payload = tokens[5:]
        else:  # numbered form: ip community-list 10 permit ...
            name = tokens[2]
            action_word = tokens[3]
            payload = tokens[4:]
            kind = "standard"
        if action_word not in ("permit", "deny"):
            raise self.context.fail(line, "community-list needs permit/deny")
        action = Action.PERMIT if action_word == "permit" else Action.DENY
        span = line.span(self.context.filename)
        if kind == "expanded":
            entry = CommunityListEntry(
                action=action, regex=" ".join(payload), source=span
            )
        else:
            members = frozenset(Community.parse(word) for word in payload)
            # One IOS standard entry with several communities is a
            # conjunction; separate entries disjoin (§2.1's subtle bug).
            entry = CommunityListEntry(action=action, communities=members, source=span)
        self._community_entries.setdefault(name, []).append(entry)

    # -- as-path lists -------------------------------------------------------------------
    def _parse_as_path_list(self, line: NumberedLine) -> None:
        tokens = line.tokens()
        # ip as-path access-list <N> permit|deny <regex>
        name = tokens[3]
        action_word = tokens[4]
        if action_word not in ("permit", "deny"):
            raise self.context.fail(line, "as-path access-list needs permit/deny")
        action = Action.PERMIT if action_word == "permit" else Action.DENY
        regex = " ".join(tokens[5:])
        self._as_path_entries.setdefault(name, []).append(
            AsPathListEntry(action=action, regex=regex, source=line.span(self.context.filename))
        )

    # -- ACLs --------------------------------------------------------------------------------
    def _parse_numbered_acl_line(self, line: NumberedLine) -> None:
        tokens = line.tokens()
        name = tokens[1]
        self._numbered_acls.add(name)
        acl_line = self._parse_acl_rule(line, tokens[2:])
        if acl_line is not None:
            self._acl_lines.setdefault(name, []).append(acl_line)

    def _parse_named_acl(self, start: int) -> int:
        header = self.lines[start]
        name = header.tokens()[3]
        acl_lines = self._acl_lines.setdefault(name, [])  # empty ACLs still exist
        end = self._block_end(start)
        blocks = self._acl_blocks.setdefault(name, [])
        blocks.append(None)
        key = ("cisco", tuple(line.text for line in self.lines[start:end]))
        entry = self.memo.lookup(key)
        if entry is not None:
            acl_lines.extend(
                entry.rebased(
                    self.context.filename, header.number, self.device.raw_lines
                )
            )
            blocks[-1] = entry
            return end
        first = len(acl_lines)
        mark = self.context.mark()
        for line in self.lines[start + 1 : end]:
            tokens = line.tokens()
            if not tokens:
                continue
            # Optional sequence number prefix (IOS-XR style "2299 deny ...").
            if tokens[0].isdigit():
                tokens = tokens[1:]
            if not tokens or tokens[0] == "remark":
                continue
            acl_line = self._parse_acl_rule(line, tokens)
            if acl_line is not None:
                acl_lines.append(acl_line)
        if self.context.mark() == mark:
            lines = tuple(acl_lines[first:])
            blocks[-1] = self.memo.store(
                key, header.number, lines, Acl(name=name, lines=lines)
            )
        return end

    def _parse_acl_rule(
        self, line: NumberedLine, tokens: Sequence[str]
    ) -> Optional[AclLine]:
        """Parse ``permit|deny <proto> <src> [ports] <dst> [ports] [...]``."""
        if not tokens:
            return None
        if tokens[0] not in ("permit", "deny"):
            self.context.warn(line, "unsupported ACL rule")
            return None
        action = AclAction.PERMIT if tokens[0] == "permit" else AclAction.DENY
        position = 1
        protocol_word = tokens[position]
        position += 1
        protocol: Optional[int] = None
        if protocol_word in ("ip", "ipv4", "any"):
            protocol = None
        elif protocol_word in IP_PROTOCOL_NUMBERS:
            protocol = IP_PROTOCOL_NUMBERS[protocol_word]
        elif protocol_word.isdigit():
            protocol = int(protocol_word)
        else:
            self.context.warn(line, f"unsupported protocol {protocol_word!r}")
            return None

        src, position = self._parse_acl_address(tokens, position, line)
        src_ports, position = self._parse_acl_ports(tokens, position)
        dst, position = self._parse_acl_address(tokens, position, line)
        dst_ports, position = self._parse_acl_ports(tokens, position)

        icmp_type: Optional[int] = None
        rest = tokens[position:]
        if protocol == IP_PROTOCOL_NUMBERS["icmp"] and rest:
            icmp_names = {
                "echo": 8,
                "echo-reply": 0,
                "ttl-exceeded": 11,
                "unreachable": 3,
            }
            if rest[0] in icmp_names:
                icmp_type = icmp_names[rest[0]]
                rest = rest[1:]
            elif rest[0].isdigit():
                icmp_type = int(rest[0])
                rest = rest[1:]
        for word in rest:
            if word in ("log", "log-input", "established"):
                continue  # match-neutral or stateful options, out of scope
            self.context.warn(line, f"ignored ACL option {word!r}")

        return AclLine(
            action=action,
            src=src,
            dst=dst,
            protocol=protocol,
            src_ports=src_ports,
            dst_ports=dst_ports,
            icmp_type=icmp_type,
            source=line.span(self.context.filename),
        )

    def _parse_acl_address(
        self, tokens: Sequence[str], position: int, line: NumberedLine
    ) -> Tuple[IpWildcard, int]:
        if position >= len(tokens):
            return IpWildcard.any(), position
        word = tokens[position]
        if word == "any":
            return IpWildcard.any(), position + 1
        if word == "host":
            return IpWildcard.host(ip_to_int(tokens[position + 1])), position + 2
        address = ip_to_int(word)
        if position + 1 < len(tokens):
            try:
                wildcard = ip_to_int(tokens[position + 1])
                return IpWildcard(address, wildcard), position + 2
            except ConfigError:
                pass
        return IpWildcard.host(address), position + 1

    def _parse_acl_ports(
        self, tokens: Sequence[str], position: int
    ) -> Tuple[Tuple[PortRange, ...], int]:
        if position >= len(tokens):
            return (), position
        word = tokens[position]
        if word == "eq":
            port = _port_number(tokens[position + 1])
            return (PortRange.single(port),), position + 2
        if word == "range":
            low = _port_number(tokens[position + 1])
            high = _port_number(tokens[position + 2])
            return (PortRange(low, high),), position + 3
        if word == "gt":
            port = _port_number(tokens[position + 1])
            return (PortRange(port + 1, 0xFFFF),), position + 2
        if word == "lt":
            port = _port_number(tokens[position + 1])
            return (PortRange(0, port - 1),), position + 2
        if word == "neq":
            port = _port_number(tokens[position + 1])
            ranges = []
            if port > 0:
                ranges.append(PortRange(0, port - 1))
            if port < 0xFFFF:
                ranges.append(PortRange(port + 1, 0xFFFF))
            return tuple(ranges), position + 2
        return (), position

    # -- route maps ------------------------------------------------------------------------------
    def _parse_route_map(self, start: int) -> int:
        header = self.lines[start]
        tokens = header.tokens()
        # route-map NAME permit|deny SEQ
        if len(tokens) < 4 or tokens[2] not in ("permit", "deny"):
            raise self.context.fail(header, "route-map needs action and sequence")
        name = tokens[1]
        action = Action.PERMIT if tokens[2] == "permit" else Action.DENY
        sequence = int(tokens[3])
        end = self._block_end(start)

        matches = []
        sets = []
        for line in self.lines[start + 1 : end]:
            words = line.tokens()
            if not words:
                continue
            span = line.span(self.context.filename)
            if words[0] == "match":
                condition = self._parse_match(words, span, line)
                if condition is not None:
                    matches.append(condition)
            elif words[0] == "set":
                set_action = self._parse_set(words, span, line)
                if set_action is not None:
                    sets.append(set_action)
            elif words[0] == "description":
                continue
            else:
                self.context.warn(line, "unsupported route-map statement")

        span = SourceSpan.from_lines(
            self.context.filename,
            [(l.number, l.text.rstrip()) for l in self.lines[start:end]],
        )
        clause = RouteMapClause(
            name=f"route-map {name} {tokens[2]} {sequence}",
            action=action,
            matches=tuple(matches),
            sets=tuple(sets),
            source=span,
        )
        self._route_map_clauses.setdefault(name, []).append((sequence, clause))
        return end

    def _parse_match(self, words, span, line):
        if words[1:3] == ["ip", "address"]:
            # "match ip address prefix-list NAME" or "match ip address NAME";
            # both forms resolve against prefix lists at assembly time.
            name = words[4] if len(words) > 4 and words[3] == "prefix-list" else words[3]
            return _PendingPrefixMatch(name, span)
        if words[1] == "community":
            return _PendingCommunityMatch(words[2], span)
        if words[1] == "as-path":
            return _PendingAsPathMatch(words[2], span)
        if words[1] == "tag":
            return MatchTag(int(words[2]), span)
        self.context.warn(line, "unsupported match condition")
        return None

    def _parse_set(self, words, span, line):
        if words[1] == "local-preference":
            return SetLocalPref(int(words[2]), span)
        if words[1] == "metric":
            return SetMed(int(words[2]), span)
        if words[1] == "community":
            additive = words[-1] == "additive"
            payload = words[2:-1] if additive else words[2:]
            communities = frozenset(Community.parse(word) for word in payload)
            return SetCommunities(communities, additive, span)
        if words[1:3] == ["ip", "next-hop"]:
            return SetNextHop(ip_to_int(words[3]), span)
        if words[1:3] == ["as-path", "prepend"]:
            return SetAsPathPrepend(tuple(int(word) for word in words[3:]), span)
        if words[1] == "tag":
            return SetTag(int(words[2]), span)
        self.context.warn(line, "unsupported set action")
        return None

    # -- BGP -----------------------------------------------------------------------------------------
    def _parse_bgp(self, start: int) -> int:
        header = self.lines[start]
        asn = int(header.tokens()[2])
        end = self._block_end(start)
        neighbors: Dict[int, Dict] = {}
        neighbor_spans: Dict[int, List[Tuple[int, str]]] = {}
        redistributions: List[Redistribution] = []
        router_id: Optional[int] = None
        default_local_pref = 100
        for line in self.lines[start + 1 : end]:
            words = line.tokens()
            if not words:
                continue
            if words[0] == "neighbor" and len(words) >= 3:
                try:
                    peer = ip_to_int(words[1])
                except ConfigError:
                    self.context.warn(line, "peer-group neighbors unsupported")
                    continue
                settings = neighbors.setdefault(peer, {})
                neighbor_spans.setdefault(peer, []).append(
                    (line.number, line.text.rstrip())
                )
                keyword = words[2]
                if keyword == "remote-as":
                    settings["remote_as"] = int(words[3])
                elif keyword == "description":
                    settings["description"] = " ".join(words[3:])
                elif keyword == "route-map" and len(words) >= 5:
                    if words[4] == "in":
                        settings["import_policy"] = words[3]
                    elif words[4] == "out":
                        settings["export_policy"] = words[3]
                elif keyword == "route-reflector-client":
                    settings["route_reflector_client"] = True
                elif keyword == "send-community":
                    settings["send_community"] = True
                elif keyword == "next-hop-self":
                    settings["next_hop_self"] = True
                elif keyword == "update-source":
                    settings["update_source"] = words[3]
                elif keyword == "ebgp-multihop":
                    settings["ebgp_multihop"] = True
                elif keyword == "activate":
                    pass  # address-family activation: match-neutral here
                else:
                    self.context.warn(line, f"unsupported neighbor option {keyword!r}")
            elif words[0] == "redistribute":
                route_map = None
                metric = None
                if "route-map" in words:
                    route_map = words[words.index("route-map") + 1]
                if "metric" in words:
                    metric = int(words[words.index("metric") + 1])
                redistributions.append(
                    Redistribution(
                        from_protocol=words[1],
                        route_map=route_map,
                        metric=metric,
                        source=line.span(self.context.filename),
                    )
                )
            elif words[:2] == ["bgp", "router-id"]:
                router_id = ip_to_int(words[2])
            elif words[:3] == ["bgp", "default", "local-preference"]:
                default_local_pref = int(words[3])
            elif words[0] == "distance" and words[1] == "bgp" and len(words) >= 4:
                self.device.admin_distances["ebgp"] = int(words[2])
                self.device.admin_distances["ibgp"] = int(words[3])
            elif words[:2] == ["address-family", "ipv4"] or words[0] in (
                "exit-address-family",
            ):
                continue  # flat v4 configs only; the subcommands parse the same
            else:
                self.context.warn(line, "unsupported bgp statement")

        bgp_span = SourceSpan.from_lines(
            self.context.filename,
            [(l.number, l.text.rstrip()) for l in self.lines[start:end]],
        )
        built = []
        for peer, settings in sorted(neighbors.items()):
            span = SourceSpan.from_lines(self.context.filename, neighbor_spans[peer])
            built.append(
                BgpNeighbor(
                    peer_ip=peer,
                    remote_as=settings.get("remote_as", 0),
                    description=settings.get("description", ""),
                    import_policy=settings.get("import_policy"),
                    export_policy=settings.get("export_policy"),
                    route_reflector_client=settings.get("route_reflector_client", False),
                    send_community=settings.get("send_community", False),
                    next_hop_self=settings.get("next_hop_self", False),
                    update_source=settings.get("update_source"),
                    ebgp_multihop=settings.get("ebgp_multihop", False),
                    source=span,
                )
            )
        self.device.bgp = BgpProcess(
            asn=asn,
            router_id=router_id,
            neighbors=tuple(built),
            redistributions=tuple(redistributions),
            default_local_pref=default_local_pref,
            source=bgp_span,
        )
        return end

    # -- OSPF -----------------------------------------------------------------------------------------
    def _parse_ospf(self, start: int) -> int:
        header = self.lines[start]
        process_id = header.tokens()[2]
        end = self._block_end(start)
        router_id: Optional[int] = None
        reference_bandwidth = 100_000_000
        passive: List[str] = []
        redistributions: List[OspfRedistribution] = []
        for line in self.lines[start + 1 : end]:
            words = line.tokens()
            if not words:
                continue
            if words[0] == "router-id":
                router_id = ip_to_int(words[1])
            elif words[0] == "network" and len(words) >= 5 and words[3] == "area":
                wildcard = IpWildcard(ip_to_int(words[1]), ip_to_int(words[2]))
                self._ospf_networks.append((wildcard, _area_number(words[4])))
            elif words[0] == "passive-interface":
                passive.append(words[1])
            elif words[0] == "redistribute":
                route_map = None
                metric = None
                metric_type = 2
                if "route-map" in words:
                    route_map = words[words.index("route-map") + 1]
                if "metric" in words:
                    metric = int(words[words.index("metric") + 1])
                if "metric-type" in words:
                    metric_type = int(words[words.index("metric-type") + 1])
                redistributions.append(
                    OspfRedistribution(
                        from_protocol=words[1],
                        route_map=route_map,
                        metric=metric,
                        metric_type=metric_type,
                        source=line.span(self.context.filename),
                    )
                )
            elif words[:2] == ["auto-cost", "reference-bandwidth"]:
                reference_bandwidth = int(words[2]) * 1_000_000  # IOS takes Mbps
            elif words[0] == "distance" and len(words) >= 2 and words[1].isdigit():
                self.device.admin_distances["ospf"] = int(words[1])
            else:
                self.context.warn(line, "unsupported ospf statement")
        span = SourceSpan.from_lines(
            self.context.filename,
            [(l.number, l.text.rstrip()) for l in self.lines[start:end]],
        )
        self._ospf = {
            "process_id": process_id,
            "router_id": router_id,
            "reference_bandwidth": reference_bandwidth,
            "passive": passive,
            "redistributions": redistributions,
            "span": span,
        }
        return end

    # -- assembly -----------------------------------------------------------------------------------------
    def acl_digests(self) -> Dict[str, str]:
        """Digests of the ACLs that are exactly one memoized block.

        An ACL with a second block or a numbered ``access-list`` line
        differs from any single stanza, so it is fingerprinted live.
        """
        return {
            name: blocks[0].digest
            for name, blocks in self._acl_blocks.items()
            if len(blocks) == 1
            and blocks[0] is not None
            and name not in self._numbered_acls
        }

    def _assemble(self) -> DeviceConfig:
        device = self.device
        for name, entries in self._prefix_entries.items():
            device.prefix_lists[name] = PrefixList(name, tuple(entries))
        for name, entries in self._community_entries.items():
            device.community_lists[name] = CommunityList(name, tuple(entries))
        for name, entries in self._as_path_entries.items():
            device.as_path_lists[name] = AsPathList(name, tuple(entries))
        for name, lines in self._acl_lines.items():
            span = lines[0].source if lines else SourceSpan()
            for acl_line in lines[1:]:
                span = span.merge(acl_line.source)
            device.acls[name] = Acl(name=name, lines=tuple(lines), source=span)

        for name, numbered in self._route_map_clauses.items():
            numbered.sort(key=lambda pair: pair[0])
            clauses = tuple(
                self._resolve_clause(clause) for _, clause in numbered
            )
            span = clauses[0].source
            for clause in clauses[1:]:
                span = span.merge(clause.source)
            device.route_maps[name] = RouteMap(
                name=name,
                clauses=clauses,
                default_action=Action.DENY,  # IOS implicit deny
                source=span,
            )

        self._assemble_ospf()
        device.diagnostics = tuple(self.context.diagnostics)
        return device

    def _resolve_clause(self, clause: RouteMapClause) -> RouteMapClause:
        """Replace pending named references with the parsed lists."""
        resolved = []
        for condition in clause.matches:
            if isinstance(condition, _PendingPrefixMatch):
                prefix_list = self.device.prefix_lists.get(
                    condition.name
                ) or PrefixList(condition.name, ())
                if condition.name not in self._prefix_entries:
                    self.context.warnings.append(
                        _undefined_warning(condition.name, "prefix-list")
                    )
                resolved.append(MatchPrefixList(prefix_list, condition.span))
            elif isinstance(condition, _PendingCommunityMatch):
                community_list = self.device.community_lists.get(
                    condition.name
                ) or CommunityList(condition.name, ())
                resolved.append(MatchCommunities(community_list, condition.span))
            elif isinstance(condition, _PendingAsPathMatch):
                as_path_list = self.device.as_path_lists.get(
                    condition.name
                ) or AsPathList(condition.name, ())
                resolved.append(MatchAsPath(as_path_list, condition.span))
            else:
                resolved.append(condition)
        return RouteMapClause(
            name=clause.name,
            action=clause.action,
            matches=tuple(resolved),
            sets=clause.sets,
            source=clause.source,
        )

    def _assemble_ospf(self) -> None:
        if self._ospf is None:
            return
        settings_list = []
        passive = set(self._ospf["passive"])
        for name, interface in self.device.interfaces.items():
            if interface.address is None:
                continue
            area = self._ospf_area_for(interface)
            if area is None and name not in self._interface_ospf:
                continue
            extras = self._interface_ospf.get(name, {})
            settings_list.append(
                OspfInterfaceSettings(
                    interface=name,
                    area=area if area is not None else 0,
                    cost=extras.get("cost"),
                    passive=name in passive,
                    hello_interval=extras.get("hello_interval", 10),
                    dead_interval=extras.get("dead_interval", 40),
                    network_type=extras.get("network_type", "broadcast"),
                    source=interface.source,
                )
            )
        self.device.ospf = OspfProcess(
            process_id=self._ospf["process_id"],
            router_id=self._ospf["router_id"],
            interfaces=tuple(settings_list),
            redistributions=tuple(self._ospf["redistributions"]),
            reference_bandwidth=self._ospf["reference_bandwidth"],
            source=self._ospf["span"],
        )

    def _ospf_area_for(self, interface: Interface) -> Optional[int]:
        """Match an interface address against ``network ... area`` lines."""
        if interface.address is None:
            return None
        host = interface.address.network
        for wildcard, area in self._ospf_networks:
            if wildcard.matches(host):
                return area
        return None


class _PendingPrefixMatch:
    def __init__(self, name: str, span: SourceSpan):
        self.name = name
        self.span = span


class _PendingCommunityMatch:
    def __init__(self, name: str, span: SourceSpan):
        self.name = name
        self.span = span


class _PendingAsPathMatch:
    def __init__(self, name: str, span: SourceSpan):
        self.name = name
        self.span = span


def _undefined_warning(name: str, kind: str):
    from .common import ParserWarning

    return ParserWarning(0, name, f"undefined {kind}")


def _port_number(word: str) -> int:
    named = {
        "bgp": 179,
        "domain": 53,
        "ftp": 21,
        "http": 80,
        "www": 80,
        "https": 443,
        "ntp": 123,
        "smtp": 25,
        "snmp": 161,
        "ssh": 22,
        "syslog": 514,
        "telnet": 23,
        "tftp": 69,
    }
    if word in named:
        return named[word]
    return int(word)


def _area_number(word: str) -> int:
    """Areas appear as integers or dotted quads."""
    if "." in word:
        return ip_to_int(word)
    return int(word)
