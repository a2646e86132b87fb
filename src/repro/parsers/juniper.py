"""Juniper JunOS configuration parser (hierarchical curly-brace format).

Parses the JunOS feature subset Campion models into the same
vendor-independent :class:`~repro.model.device.DeviceConfig` the Cisco
parser produces:

* ``system host-name``,
* ``interfaces`` (unit addresses, firewall filter bindings, disable),
* ``routing-options`` (static routes with next-hop/preference/tag,
  router-id, autonomous-system),
* ``policy-options`` (prefix-lists, communities — including the
  all-members-conjunction semantics behind the paper's Figure 1 bug —
  as-path definitions, and policy-statements with terms),
* ``protocols bgp`` (groups, neighbors, import/export, cluster ⇒ route
  reflector, remove send-community semantics: JunOS sends communities by
  default, §5.2),
* ``protocols ospf`` (areas, interface metrics, passive, timers,
  reference-bandwidth),
* ``firewall family inet filter`` (terms with from/then).

Vendor-semantic normalizations applied here (the heart of cross-vendor
differencing):

* ``from prefix-list NAME`` matches prefixes **exactly** — each list
  entry becomes an exact-length prefix range, which is the Figure 1
  prefix-list bug,
* ``route-filter`` modifiers (``exact``, ``orlonger``, ``upto``,
  ``prefix-length-range``) become explicit length ranges,
* ``community NAME members [a b]`` is a *conjunction* of members,
* BGP neighbors send communities by default (``send_community=True``),
* a policy-statement's fall-through is **accept** (JunOS's protocol
  default for BGP), versus IOS's implicit deny — the university
  network's differing fall-through behaviors (§5.2) emerge from exactly
  this pair of defaults.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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
    MatchProtocol,
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
from .common import ParseContext, StanzaMemo

__all__ = ["parse_juniper", "JunosStatement"]


# ---------------------------------------------------------------------------
# Hierarchical syntax tree
# ---------------------------------------------------------------------------


@dataclass
class JunosStatement:
    """One JunOS statement: words, optional children, and line extent."""

    words: List[str]
    children: List["JunosStatement"] = field(default_factory=list)
    start_line: int = 0
    end_line: int = 0
    #: Whether this block closed and its own tokens, from its first
    #: word outside ``[ ]`` to its closing brace, are all the tokens on
    #: lines ``start_line..end_line``.  Such a block parses the same
    #: wherever its lines appear, which the stanza memo relies on.
    owns_lines: bool = field(default=False, compare=False, repr=False)

    @property
    def head(self) -> str:
        """The statement's first word (its keyword)."""
        return self.words[0] if self.words else ""

    def child(self, *heads: str) -> Optional["JunosStatement"]:
        """First child whose leading words equal ``heads``."""
        for statement in self.children:
            if tuple(statement.words[: len(heads)]) == heads:
                return statement
        return None

    def find_all(self, head: str) -> List["JunosStatement"]:
        """All children whose keyword is ``head``."""
        return [s for s in self.children if s.head == head]

    def span(self, filename: str, lines: Sequence[str]) -> SourceSpan:
        """SourceSpan covering the whole statement block."""
        text = tuple(
            lines[number - 1].rstrip()
            for number in range(self.start_line, self.end_line + 1)
            if 1 <= number <= len(lines)
        )
        return SourceSpan(filename, self.start_line, self.end_line, text)

    def header_span(self, filename: str, lines: Sequence[str]) -> SourceSpan:
        """SourceSpan covering only the statement's first line."""
        if 1 <= self.start_line <= len(lines):
            return SourceSpan(
                filename,
                self.start_line,
                self.start_line,
                (lines[self.start_line - 1].rstrip(),),
            )
        return SourceSpan(filename)


_TOKEN_RE = re.compile(r'"[^"]*"|[{};\[\]]|[^\s{};\[\]]+')


def _tokenize(lines: List[str]) -> List[Tuple[str, int]]:
    """Tokens with 1-based line numbers; comments (# and /* */) stripped."""
    tokens: List[Tuple[str, int]] = []
    in_block_comment = False
    for number, text in enumerate(lines, start=1):
        if in_block_comment:
            end = text.find("*/")
            if end < 0:
                continue
            text = text[end + 2 :]
            in_block_comment = False
        start = text.find("/*")
        while start >= 0:
            end = text.find("*/", start + 2)
            if end < 0:
                text = text[:start]
                in_block_comment = True
                break
            text = text[:start] + text[end + 2 :]
            start = text.find("/*")
        hash_pos = text.find("#")
        if hash_pos >= 0:
            text = text[:hash_pos]
        for match in _TOKEN_RE.finditer(text):
            token = match.group(0)
            if token.startswith('"') and token.endswith('"'):
                token = token[1:-1]
            tokens.append((token, number))
    return tokens


def parse_junos_tree(text: str, context: ParseContext) -> JunosStatement:
    """Parse JunOS text into a statement tree rooted at a synthetic node."""
    return _statement_tree(text.splitlines())


def _statement_tree(lines: List[str]) -> JunosStatement:
    """The statement tree of JunOS text already split into lines."""
    tokens = _tokenize(lines)
    root = JunosStatement(words=["<root>"], start_line=1, end_line=len(lines))
    stack: List[JunosStatement] = [root]
    current_words: List[str] = []
    first_line = 0
    # Index of the current statement's first token, and whether that
    # token sat inside [ ] (for JunosStatement.owns_lines).
    first_index = 0
    first_bracketed = False
    in_brackets = False

    for index, (token, line_number) in enumerate(tokens):
        if not current_words:
            first_line = line_number
            first_index = index
            first_bracketed = in_brackets
        if token == "[":
            in_brackets = True
            continue
        if token == "]":
            in_brackets = False
            continue
        if in_brackets:
            current_words.append(token)
            continue
        if token == "{":
            statement = JunosStatement(
                words=list(current_words), start_line=first_line, end_line=first_line
            )
            statement.owns_lines = not first_bracketed and (
                first_index == 0 or tokens[first_index - 1][1] < first_line
            )
            stack[-1].children.append(statement)
            stack.append(statement)
            current_words = []
        elif token == "}":
            if current_words:
                stack[-1].children.append(
                    JunosStatement(
                        words=list(current_words),
                        start_line=first_line,
                        end_line=line_number,
                    )
                )
                current_words = []
            if len(stack) > 1:
                closed = stack.pop()
                closed.end_line = line_number
                closed.owns_lines = closed.owns_lines and (
                    index + 1 == len(tokens) or tokens[index + 1][1] > line_number
                )
        elif token == ";":
            if current_words:
                stack[-1].children.append(
                    JunosStatement(
                        words=list(current_words),
                        start_line=first_line,
                        end_line=line_number,
                    )
                )
                current_words = []
        else:
            current_words.append(token)

    if current_words:
        stack[-1].children.append(
            JunosStatement(
                words=current_words, start_line=first_line, end_line=first_line
            )
        )
    # A block whose closing brace never came has no known extent.
    for unclosed in stack[1:]:
        unclosed.owns_lines = False
    return root


# ---------------------------------------------------------------------------
# Interpretation
# ---------------------------------------------------------------------------


def parse_juniper(
    text: str,
    filename: str = "<junos-config>",
    strict: bool = False,
    memo: Optional[StanzaMemo] = None,
) -> DeviceConfig:
    """Parse a JunOS configuration into a DeviceConfig.

    In the default lenient mode an unparseable stanza is recorded as an
    error-severity :class:`~repro.diagnostics.Diagnostic` (with line
    provenance) on the returned device and skipped; ``strict=True``
    restores fail-fast :class:`ConfigError` behavior.  ``memo`` shares
    parsed firewall filters across the configurations of one run.
    """
    with perf.timer("parse.juniper"):
        context = ParseContext(filename, strict=strict)
        lines = text.splitlines()
        tree = _statement_tree(lines)
        interpreter = _JunosInterpreter(
            lines, filename, tree, context, memo or StanzaMemo()
        )
        device = interpreter.interpret()
    perf.add("parse.juniper.lines", len(interpreter.raw_lines))
    with perf.timer("parse.fingerprint"):
        device.seal(interpreter.acl_digests)
    return device


class _JunosInterpreter:
    def __init__(
        self,
        lines: List[str],
        filename: str,
        tree: JunosStatement,
        context: ParseContext,
        memo: StanzaMemo,
    ):
        self.tree = tree
        self.context = context
        self.filename = filename
        self.memo = memo
        #: digests of ACLs taken from or stored into the memo, by name
        self.acl_digests: Dict[str, str] = {}
        self.raw_lines = lines
        self.device = DeviceConfig(
            hostname="juniper-router", vendor="juniper", filename=filename
        )
        self.device.raw_lines = tuple(self.raw_lines)

    def _span(self, statement: JunosStatement) -> SourceSpan:
        return statement.span(self.filename, self.raw_lines)

    def _header(self, statement: JunosStatement) -> SourceSpan:
        return statement.header_span(self.filename, self.raw_lines)

    def _warn(self, statement: JunosStatement, reason: str) -> None:
        self.context.warnings.append(_warning(statement, reason))
        self.context.sink.warning(reason, span=self._header(statement))

    def _guarded(self, interpret, statement: JunosStatement) -> None:
        """Run one stanza's interpreter, recording-and-skipping failures.

        Strict mode re-raises (via the sink) at the first unparseable
        stanza; lenient mode keeps the stanza's span in the diagnostics
        so reports can flag the reduced coverage.
        """
        try:
            interpret(statement)
        except (ConfigError, ValueError, IndexError, KeyError) as exc:
            self.context.error_span(
                self._header(statement),
                f"parse error in {' '.join(statement.words) or 'stanza'}: {exc}",
            )

    # -- top level -----------------------------------------------------------
    def interpret(self) -> DeviceConfig:
        for statement in self.tree.children:
            head = statement.head
            if head == "system":
                self._guarded(self._interpret_system, statement)
            elif head == "interfaces":
                self._guarded(self._interpret_interfaces, statement)
            elif head == "routing-options":
                self._guarded(self._interpret_routing_options, statement)
            elif head == "policy-options":
                self._interpret_policy_options(statement)
            elif head == "protocols":
                self._guarded(self._interpret_protocols, statement)
            elif head == "firewall":
                self._guarded(self._interpret_firewall, statement)
            else:
                self._warn(statement, "unsupported top-level stanza")
        self.device.diagnostics = tuple(self.context.diagnostics)
        return self.device

    def _interpret_system(self, system: JunosStatement) -> None:
        host_name = system.child("host-name")
        if host_name is not None and len(host_name.words) >= 2:
            self.device.hostname = host_name.words[1]

    # -- interfaces ------------------------------------------------------------
    def _interpret_interfaces(self, interfaces: JunosStatement) -> None:
        for interface_statement in interfaces.children:
            name = interface_statement.head
            description = ""
            shutdown = interface_statement.child("disable") is not None
            address: Optional[Prefix] = None
            acl_in: Optional[str] = None
            acl_out: Optional[str] = None
            description_statement = interface_statement.child("description")
            if description_statement is not None:
                description = " ".join(description_statement.words[1:])
            for unit in interface_statement.find_all("unit"):
                unit_number = unit.words[1] if len(unit.words) > 1 else "0"
                family = unit.child("family", "inet")
                if family is None:
                    continue
                address_statement = family.child("address")
                if address_statement is not None and len(address_statement.words) >= 2:
                    address = _interface_prefix(address_statement.words[1])
                filter_statement = family.child("filter")
                if filter_statement is not None:
                    input_statement = filter_statement.child("input")
                    output_statement = filter_statement.child("output")
                    if input_statement is not None:
                        acl_in = input_statement.words[1]
                    if output_statement is not None:
                        acl_out = output_statement.words[1]
                full_name = f"{name}.{unit_number}"
                self.device.interfaces[full_name] = Interface(
                    name=full_name,
                    address=address,
                    description=description,
                    shutdown=shutdown,
                    acl_in=acl_in,
                    acl_out=acl_out,
                    source=self._span(interface_statement),
                )

    # -- routing options -----------------------------------------------------------
    def _interpret_routing_options(self, routing: JunosStatement) -> None:
        static = routing.child("static")
        if static is not None:
            for route in static.find_all("route"):
                self._interpret_static_route(route)
        router_id = routing.child("router-id")
        autonomous_system = routing.child("autonomous-system")
        self._router_id = (
            ip_to_int(router_id.words[1]) if router_id is not None else None
        )
        self._asn = (
            int(autonomous_system.words[1]) if autonomous_system is not None else 0
        )

    def _interpret_static_route(self, route: JunosStatement) -> None:
        if len(route.words) < 2:
            self._warn(route, "static route needs a prefix")
            return
        prefix = Prefix.parse(route.words[1])
        next_hop: Optional[int] = None
        interface: Optional[str] = None
        preference = 5  # JunOS static default preference
        tag: Optional[int] = None
        if "discard" in route.words or "reject" in route.words:
            interface = "discard"
        for child in route.children:
            if child.head == "next-hop" and len(child.words) >= 2:
                try:
                    next_hop = ip_to_int(child.words[1])
                except ConfigError:
                    interface = child.words[1]
            elif child.head == "preference" and len(child.words) >= 2:
                preference = int(child.words[1])
            elif child.head == "tag" and len(child.words) >= 2:
                tag = int(child.words[1])
            elif child.head in ("discard", "reject"):
                interface = "discard"
            else:
                self._warn(child, "unsupported static route option")
        self.device.static_routes.append(
            StaticRoute(
                prefix=prefix,
                next_hop=next_hop,
                interface=interface,
                admin_distance=preference,
                tag=tag,
                source=self._span(route),
            )
        )

    # -- policy options ---------------------------------------------------------------
    def _interpret_policy_options(self, policy_options: JunosStatement) -> None:
        for statement in policy_options.children:
            head = statement.head
            if head == "prefix-list":
                self._guarded(self._interpret_prefix_list, statement)
            elif head == "community":
                self._guarded(self._interpret_community, statement)
            elif head == "as-path":
                self._guarded(self._interpret_as_path, statement)
            elif head == "policy-statement":
                self._guarded(self._interpret_policy_statement, statement)
            else:
                self._warn(statement, "unsupported policy-options stanza")

    def _interpret_prefix_list(self, statement: JunosStatement) -> None:
        name = statement.words[1]
        entries = []
        for child in statement.children:
            prefix = Prefix.parse(child.words[0])
            entries.append(
                PrefixListEntry(
                    action=Action.PERMIT,
                    # JunOS prefix-lists match exactly: the Figure 1 bug.
                    range=PrefixRange.exact(prefix),
                    source=self._header(child),
                )
            )
        self.device.prefix_lists[name] = PrefixList(name, tuple(entries))

    def _interpret_community(self, statement: JunosStatement) -> None:
        # community NAME members [ 10:10 10:11 ];   (or a single regex)
        words = statement.words
        if len(words) >= 3 and words[2] == "members":
            name = words[1]
            members = words[3:]
        elif statement.child("members") is not None:
            name = words[1]
            members = statement.child("members").words[1:]
        else:
            self._warn(statement, "unsupported community definition")
            return
        span = self._header(statement)
        literal_members = []
        regex: Optional[str] = None
        for member in members:
            try:
                literal_members.append(Community.parse(member))
            except ConfigError:
                regex = member  # regex member (e.g. "^10:1.*$")
        if regex is not None and not literal_members:
            entry = CommunityListEntry(action=Action.PERMIT, regex=regex, source=span)
        elif literal_members and regex is None:
            # JunOS community with several members matches routes carrying
            # ALL of them — one conjunction entry (the Table 2(b) bug).
            entry = CommunityListEntry(
                action=Action.PERMIT,
                communities=frozenset(literal_members),
                source=span,
            )
        else:
            self._warn(statement, "mixed literal/regex community unsupported")
            return
        self.device.community_lists[name] = CommunityList(name, (entry,))

    def _interpret_as_path(self, statement: JunosStatement) -> None:
        # as-path NAME "regex";
        name = statement.words[1]
        regex = " ".join(statement.words[2:])
        self.device.as_path_lists[name] = AsPathList(
            name,
            (
                AsPathListEntry(
                    action=Action.PERMIT, regex=regex, source=self._header(statement)
                ),
            ),
        )

    def _interpret_policy_statement(self, statement: JunosStatement) -> None:
        name = statement.words[1]
        clauses: List[RouteMapClause] = []
        for term in statement.find_all("term"):
            clause = self._interpret_term(name, term)
            if clause is not None:
                clauses.append(clause)
        # Anonymous from/then directly under the policy acts as one term.
        if statement.child("from") is not None or statement.child("then") is not None:
            clause = self._interpret_term(name, statement, anonymous=True)
            if clause is not None:
                clauses.append(clause)
        self.device.route_maps[name] = RouteMap(
            name=name,
            clauses=tuple(clauses),
            # JunOS protocol default for BGP policies: accept (vs IOS deny).
            default_action=Action.PERMIT,
            source=self._span(statement),
        )

    def _interpret_term(
        self, policy_name: str, term: JunosStatement, anonymous: bool = False
    ) -> Optional[RouteMapClause]:
        term_name = (
            f"term {term.words[1]}" if not anonymous and len(term.words) > 1 else "term <anonymous>"
        )
        matches = []
        sets = []
        action: Optional[Action] = None

        # Both the block form (``from { ... }``) and the inline form
        # (``from community COMM;``) appear as children headed "from".
        for from_stmt in (c for c in term.children if c.head == "from"):
            matches.extend(self._interpret_from(from_stmt))

        for then_stmt in (c for c in term.children if c.head == "then"):
            term_action, term_sets = self._interpret_then(then_stmt)
            if term_action is not None:
                action = term_action
            sets.extend(term_sets)

        if action is None:
            # JunOS flow-through term; modeled as accept-with-sets (see
            # module docstring: a documented simplification).
            action = Action.PERMIT
        return RouteMapClause(
            name=term_name,
            action=action,
            matches=tuple(matches),
            sets=tuple(sets),
            source=self._span(term),
        )

    def _interpret_from(self, from_statement: JunosStatement) -> List:
        """Both inline (``from community COMM;``) and block form.

        JunOS semantics: within one ``from``, conditions of *different*
        kinds conjoin, but multiple prefix-type conditions (prefix-lists
        and route-filters) **disjoin**.  We realize the disjunction by
        concatenating their entries into one synthetic first-match
        prefix list (permit entries OR together).
        """
        matches = []
        if len(from_statement.words) > 1:
            matches.extend(self._from_condition(from_statement.words[1:], from_statement))
        for child in from_statement.children:
            matches.extend(self._from_condition(child.words, child))
        prefix_matches = [m for m in matches if isinstance(m, MatchPrefixList)]
        if len(prefix_matches) <= 1:
            return matches
        others = [m for m in matches if not isinstance(m, MatchPrefixList)]
        entries = []
        span = prefix_matches[0].source
        names = []
        for match in prefix_matches:
            entries.extend(match.prefix_list.entries)
            names.append(match.prefix_list.name)
            span = span.merge(match.source)
        merged = PrefixList(" | ".join(names), tuple(entries))
        return [MatchPrefixList(merged, span)] + others

    def _from_condition(self, words: List[str], statement: JunosStatement) -> List:
        span = self._header(statement)
        if not words:
            return []
        head = words[0]
        if head == "prefix-list" and len(words) >= 2:
            name = words[1]
            prefix_list = self.device.prefix_lists.get(name) or PrefixList(name, ())
            return [MatchPrefixList(prefix_list, span)]
        if head == "route-filter" and len(words) >= 3:
            prefix_range = _route_filter_range(words)
            synthetic = PrefixList(
                f"route-filter {words[1]}",
                (PrefixListEntry(Action.PERMIT, prefix_range, span),),
            )
            return [MatchPrefixList(synthetic, span)]
        if head == "community" and len(words) >= 2:
            name = words[1]
            community_list = self.device.community_lists.get(name) or CommunityList(
                name, ()
            )
            return [MatchCommunities(community_list, span)]
        if head == "as-path" and len(words) >= 2:
            name = words[1]
            as_path_list = self.device.as_path_lists.get(name) or AsPathList(name, ())
            return [MatchAsPath(as_path_list, span)]
        if head == "protocol" and len(words) >= 2:
            return [MatchProtocol(words[1], span)]
        if head == "tag" and len(words) >= 2:
            return [MatchTag(int(words[1]), span)]
        self._warn(statement, f"unsupported from condition {head!r}")
        return []

    def _interpret_then(
        self, then_statement: JunosStatement
    ) -> Tuple[Optional[Action], List]:
        action: Optional[Action] = None
        sets: List = []
        directives: List[Tuple[List[str], JunosStatement]] = []
        if len(then_statement.words) > 1:
            directives.append((then_statement.words[1:], then_statement))
        for child in then_statement.children:
            directives.append((child.words, child))
        for words, statement in directives:
            span = self._header(statement)
            head = words[0] if words else ""
            if head == "accept":
                action = Action.PERMIT
            elif head == "reject":
                action = Action.DENY
            elif head == "local-preference" and len(words) >= 2:
                sets.append(SetLocalPref(int(words[1]), span))
            elif head == "metric" and len(words) >= 2:
                sets.append(SetMed(int(words[1]), span))
            elif head == "community" and len(words) >= 3:
                mode = words[1]  # add | set | delete
                name = words[2]
                community_list = self.device.community_lists.get(name)
                members = (
                    community_list.mentioned_communities()
                    if community_list is not None
                    else frozenset()
                )
                if mode in ("add", "set"):
                    sets.append(SetCommunities(members, mode == "add", span))
                else:
                    self._warn(statement, f"unsupported community action {mode!r}")
            elif head == "next-hop" and len(words) >= 2 and words[1] != "self":
                try:
                    sets.append(SetNextHop(ip_to_int(words[1]), span))
                except ConfigError:
                    self._warn(statement, "unsupported next-hop form")
            elif head == "as-path-prepend" and len(words) >= 2:
                sets.append(
                    SetAsPathPrepend(tuple(int(word) for word in words[1:]), span)
                )
            elif head == "tag" and len(words) >= 2:
                sets.append(SetTag(int(words[1]), span))
            elif head in ("next", "default-action"):
                self._warn(statement, f"unsupported then directive {head!r}")
            elif head:
                self._warn(statement, f"unsupported then directive {head!r}")
        return action, sets

    # -- protocols ------------------------------------------------------------------
    def _interpret_protocols(self, protocols: JunosStatement) -> None:
        bgp = protocols.child("bgp")
        if bgp is not None:
            self._interpret_bgp(bgp)
        ospf = protocols.child("ospf")
        if ospf is not None:
            self._interpret_ospf(ospf)

    def _interpret_bgp(self, bgp: JunosStatement) -> None:
        neighbors: List[BgpNeighbor] = []
        redistributions: List[Redistribution] = []
        group_level_export: Dict[str, Optional[str]] = {}
        for group in bgp.find_all("group"):
            group_import = _policy_name(group.child("import"))
            group_export = _policy_name(group.child("export"))
            cluster = group.child("cluster") is not None
            group_type = group.child("type")
            for neighbor_statement in group.find_all("neighbor"):
                peer_text = neighbor_statement.words[1]
                peer = ip_to_int(peer_text)
                peer_as_statement = neighbor_statement.child("peer-as")
                remote_as = (
                    int(peer_as_statement.words[1])
                    if peer_as_statement is not None
                    else self._asn
                )
                import_policy = (
                    _policy_name(neighbor_statement.child("import")) or group_import
                )
                export_policy = (
                    _policy_name(neighbor_statement.child("export")) or group_export
                )
                description_statement = neighbor_statement.child("description")
                description = (
                    " ".join(description_statement.words[1:])
                    if description_statement is not None
                    else ""
                )
                neighbors.append(
                    BgpNeighbor(
                        peer_ip=peer,
                        remote_as=remote_as,
                        description=description,
                        import_policy=import_policy,
                        export_policy=export_policy,
                        route_reflector_client=cluster,
                        send_community=True,  # JunOS default (§5.2)
                        next_hop_self=False,
                        source=self._span(neighbor_statement),
                    )
                )
        # JunOS redistribution is via export policies with "from protocol";
        # surface those as Redistribution records for structural pairing.
        for route_map in self.device.route_maps.values():
            protocols_matched = {
                condition.protocol
                for clause in route_map.clauses
                for condition in clause.matches
                if isinstance(condition, MatchProtocol)
            }
            for protocol in sorted(protocols_matched):
                if protocol in ("static", "ospf", "connected", "direct"):
                    normalized = "connected" if protocol == "direct" else protocol
                    redistributions.append(
                        Redistribution(
                            from_protocol=normalized,
                            route_map=route_map.name,
                            source=route_map.source,
                        )
                    )
        self.device.bgp = BgpProcess(
            asn=self._asn,
            router_id=getattr(self, "_router_id", None),
            neighbors=tuple(sorted(neighbors, key=lambda n: n.peer_ip)),
            redistributions=tuple(redistributions),
            source=self._span(bgp),
        )

    def _interpret_ospf(self, ospf: JunosStatement) -> None:
        interfaces: List[OspfInterfaceSettings] = []
        reference_bandwidth = 100_000_000
        reference_statement = ospf.child("reference-bandwidth")
        if reference_statement is not None:
            reference_bandwidth = _bandwidth(reference_statement.words[1])
        for area in ospf.find_all("area"):
            area_id = _area_id(area.words[1])
            for interface_statement in area.find_all("interface"):
                name = interface_statement.words[1]
                metric_statement = interface_statement.child("metric")
                hello_statement = interface_statement.child("hello-interval")
                dead_statement = interface_statement.child("dead-interval")
                interface_type = interface_statement.child("interface-type")
                interfaces.append(
                    OspfInterfaceSettings(
                        interface=name,
                        area=area_id,
                        cost=(
                            int(metric_statement.words[1])
                            if metric_statement is not None
                            else None
                        ),
                        passive=interface_statement.child("passive") is not None,
                        hello_interval=(
                            int(hello_statement.words[1])
                            if hello_statement is not None
                            else 10
                        ),
                        dead_interval=(
                            int(dead_statement.words[1])
                            if dead_statement is not None
                            else 40
                        ),
                        network_type=(
                            interface_type.words[1]
                            if interface_type is not None
                            else "broadcast"
                        ),
                        source=self._span(interface_statement),
                    )
                )
        export_policies = [
            _policy_name(statement) for statement in ospf.find_all("export")
        ]
        redistributions = []
        for policy in export_policies:
            if policy is None:
                continue
            route_map = self.device.route_maps.get(policy)
            protocols_matched = set()
            if route_map is not None:
                protocols_matched = {
                    condition.protocol
                    for clause in route_map.clauses
                    for condition in clause.matches
                    if isinstance(condition, MatchProtocol)
                }
            if not protocols_matched:
                protocols_matched = {"bgp"}
            for protocol in sorted(protocols_matched):
                normalized = "connected" if protocol == "direct" else protocol
                redistributions.append(
                    OspfRedistribution(
                        from_protocol=normalized,
                        route_map=policy,
                        source=self._span(ospf),
                    )
                )
        existing = self.device.ospf
        if existing is not None:
            # JunOS configs occasionally split a stanza across blocks (and
            # our generators concatenate snippets); merge instead of
            # clobbering the earlier interpretation.
            interfaces = list(existing.interfaces) + interfaces
            redistributions = list(existing.redistributions) + redistributions
        self.device.ospf = OspfProcess(
            process_id="1",
            router_id=getattr(self, "_router_id", None),
            interfaces=tuple(interfaces),
            redistributions=tuple(redistributions),
            reference_bandwidth=reference_bandwidth,
            source=self._span(ospf),
        )

    # -- firewall -----------------------------------------------------------------------
    def _interpret_firewall(self, firewall: JunosStatement) -> None:
        family = firewall.child("family", "inet")
        filters = family.find_all("filter") if family is not None else []
        filters.extend(firewall.find_all("filter"))
        for filter_statement in filters:
            name = filter_statement.words[1]
            key = self._filter_key(filter_statement)
            entry = self.memo.lookup(key) if key is not None else None
            if entry is not None:
                lines = entry.rebased(
                    self.filename, filter_statement.start_line, self.raw_lines
                )
            else:
                mark = self.context.mark()
                terms = [
                    self._interpret_filter_term(term)
                    for term in filter_statement.find_all("term")
                ]
                lines = tuple(line for line in terms if line is not None)
            acl = Acl(
                name=name,
                lines=lines,
                default_action=AclAction.DENY,  # JunOS implicit discard
                source=self._span(filter_statement),
            )
            self.device.acls[name] = acl
            if entry is None and key is not None and self.context.mark() == mark:
                entry = self.memo.store(key, filter_statement.start_line, lines, acl)
            if entry is not None:
                self.acl_digests[name] = entry.digest
            else:
                self.acl_digests.pop(name, None)

    def _filter_key(self, statement: JunosStatement) -> Optional[tuple]:
        """The memo key of a filter, or ``None`` when it is not memoizable.

        A filter is memoizable when its lines hold only its own tokens
        and no comment markers: then its line texts alone decide how it
        parses.
        """
        if not statement.owns_lines:
            return None
        texts = tuple(self.raw_lines[statement.start_line - 1 : statement.end_line])
        for text in texts:
            if "#" in text or "/*" in text or "*/" in text:
                return None
        return ("juniper", texts)

    def _interpret_filter_term(self, term: JunosStatement) -> Optional[AclLine]:
        term_name = term.words[1] if len(term.words) > 1 else ""
        src = IpWildcard.any()
        dst = IpWildcard.any()
        protocol: Optional[int] = None
        src_ports: List[PortRange] = []
        dst_ports: List[PortRange] = []
        icmp_type: Optional[int] = None

        from_statement = term.child("from")
        if from_statement is not None:
            for child in from_statement.children:
                head = child.head
                if head == "source-address":
                    src = _address_block_wildcard(child)
                elif head == "destination-address":
                    dst = _address_block_wildcard(child)
                elif head == "protocol" and len(child.words) >= 2:
                    word = child.words[1]
                    protocol = IP_PROTOCOL_NUMBERS.get(
                        word, int(word) if word.isdigit() else None
                    )
                elif head == "source-port":
                    src_ports.extend(_ports(child.words[1:]))
                elif head == "destination-port":
                    dst_ports.extend(_ports(child.words[1:]))
                elif head == "icmp-type" and len(child.words) >= 2:
                    icmp_names = {"echo-request": 8, "echo-reply": 0}
                    word = child.words[1]
                    icmp_type = icmp_names.get(word, int(word) if word.isdigit() else None)
                else:
                    self._warn(child, f"unsupported filter condition {head!r}")

        then_statement = term.child("then")
        action = AclAction.PERMIT
        if then_statement is not None:
            words = then_statement.words[1:]
            for child in then_statement.children:
                words.extend(child.words)
            if "discard" in words or "reject" in words:
                action = AclAction.DENY
            elif "accept" in words:
                action = AclAction.PERMIT

        return AclLine(
            action=action,
            src=src,
            dst=dst,
            protocol=protocol,
            src_ports=tuple(src_ports),
            dst_ports=tuple(dst_ports),
            icmp_type=icmp_type,
            name=f"term {term_name}",
            source=self._span(term),
        )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _warning(statement: JunosStatement, reason: str):
    from .common import ParserWarning

    return ParserWarning(statement.start_line, " ".join(statement.words), reason)


def _policy_name(statement: Optional[JunosStatement]) -> Optional[str]:
    if statement is None or len(statement.words) < 2:
        return None
    return statement.words[1]


def _interface_prefix(text: str) -> Prefix:
    """Interface address keeping host bits (see ``HostPrefix``)."""
    address, _, length_text = text.partition("/")
    host = ip_to_int(address)
    length = int(length_text) if length_text else 32
    return HostPrefix(host, length)


def _route_filter_range(words: List[str]) -> PrefixRange:
    """route-filter P/L exact|orlonger|longer|upto /N|prefix-length-range /A-/B."""
    prefix = Prefix.parse(words[1])
    modifier = words[2] if len(words) > 2 else "exact"
    if modifier == "exact":
        return PrefixRange.exact(prefix)
    if modifier == "orlonger":
        return PrefixRange(prefix, prefix.length, 32)
    if modifier == "longer":
        return PrefixRange(prefix, min(prefix.length + 1, 32), 32)
    if modifier == "upto" and len(words) > 3:
        high = int(words[3].lstrip("/"))
        return PrefixRange(prefix, prefix.length, high)
    if modifier == "prefix-length-range" and len(words) > 3:
        low_text, _, high_text = words[3].partition("-")
        return PrefixRange(prefix, int(low_text.lstrip("/")), int(high_text.lstrip("/")))
    raise ConfigError(f"unsupported route-filter modifier {modifier!r}")


def _address_block_wildcard(statement: JunosStatement) -> IpWildcard:
    """A source-address/destination-address block; single prefix supported.

    Multiple prefixes per block would need a disjunctive AclLine address;
    the model keeps one wildcard per line, so multi-address blocks raise
    and callers split terms (our generators always emit one per block).
    """
    prefixes = [child.words[0] for child in statement.children]
    if len(statement.words) >= 2:
        prefixes.append(statement.words[1])
    if not prefixes:
        return IpWildcard.any()
    if len(prefixes) > 1:
        raise ConfigError("multiple addresses per filter block unsupported")
    return IpWildcard.from_prefix(Prefix.parse(prefixes[0]))


def _ports(words: List[str]) -> List[PortRange]:
    ranges = []
    for word in words:
        if "-" in word:
            low_text, _, high_text = word.partition("-")
            ranges.append(PortRange(int(low_text), int(high_text)))
        else:
            from .cisco import _port_number

            ranges.append(PortRange.single(_port_number(word)))
    return ranges


def _area_id(word: str) -> int:
    if "." in word:
        return ip_to_int(word)
    return int(word)


def _bandwidth(word: str) -> int:
    word = word.lower()
    multiplier = 1
    if word.endswith("g"):
        multiplier, word = 1_000_000_000, word[:-1]
    elif word.endswith("m"):
        multiplier, word = 1_000_000, word[:-1]
    elif word.endswith("k"):
        multiplier, word = 1_000, word[:-1]
    return int(float(word) * multiplier)
