"""Present — turning raw differences into the paper's report tables (§3).

Present does two jobs:

1. **Localization attachment** — for each SemanticDiff result, run
   HeaderLocalize over the appropriate dimensions: the prefix+length
   space for route maps (Table 2), and the destination/source address
   spaces for ACLs (Table 7).  Dimensions the paper does not localize
   exhaustively (communities, protocols, ports) get one concrete example
   decoded from a witness model, plus a count of further constrained
   fields (Table 7's "+28 more").
2. **Rendering** — the two-column difference tables: Included/Excluded
   sets, Policy Name, Action, and Text rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..bdd import Bdd, complete_model
from ..encoding.packet import PacketSpace
from ..encoding.route import RouteSpace
from ..model.acl import Acl, IP_PROTOCOL_NAMES
from ..model.routemap import RouteMap
from ..model.types import Prefix, PrefixRange, int_to_ip
from .header_localize import (
    HeaderLocalizeError,
    Localization,
    LocalizeSession,
    header_localize,
)
from .ddnf import address_prefix_algebra, prefix_range_algebra
from .results import CampionReport, ComponentKind, SemanticDifference, StructuralDifference

__all__ = [
    "localize_route_map_differences",
    "localize_acl_differences",
    "render_semantic_difference",
    "render_structural_difference",
    "render_report",
]


# ---------------------------------------------------------------------------
# Localization attachment
# ---------------------------------------------------------------------------


def localize_route_map_differences(
    space: RouteSpace,
    differences: Sequence[SemanticDifference],
    map1: RouteMap,
    map2: RouteMap,
    exhaustive_communities: bool = False,
    backend: Optional[str] = None,
) -> None:
    """Attach prefix-range localizations for one pair's differences.

    The range vocabulary, the predicate cache, and (under the bitset
    backends) the DAG atom decomposition are built once for the pair
    and shared across every difference — see :class:`LocalizeSession`.
    """
    ranges = map1.prefix_ranges() + map2.prefix_ranges()
    session = LocalizeSession(backend=backend)
    for difference in differences:
        _localize_route_map(
            space, difference, ranges, session, exhaustive_communities
        )


def _localize_route_map(
    space: RouteSpace,
    difference: SemanticDifference,
    ranges: Sequence[PrefixRange],
    session: LocalizeSession,
    exhaustive_communities: bool,
) -> None:
    """Attach prefix-range localization and a community example (§3.2).

    The affected set is projected onto the prefix+length dimensions and
    expressed over the prefix ranges appearing in either configuration.
    For the community dimension Campion reports one example (the paper's
    current behavior); we decode it from a deterministic witness.  With
    ``exhaustive_communities=True`` the §4 future-work extension runs
    instead: the community dimension is localized exhaustively as a DNF
    over the comparison's community atoms (see
    :mod:`repro.core.community_localize`).
    """
    affected = space.project_to_prefix(difference.input_set)
    try:
        difference.localization = header_localize(
            affected,
            ranges,
            prefix_range_algebra(),
            lambda prefix_range: space.range_pred(prefix_range),
            session=session,
            dimension="prefix",
        )
    except HeaderLocalizeError:
        difference.localization = None  # fall back to example-only output

    model = complete_model(difference.input_set, space.manager.num_vars)
    if model is not None:
        example = space.decode(model)
        described = example.describe()
        difference.example = {}
        support = set(difference.input_set.support())
        community_support = any(
            var.support()[0] in support for var in space.community_vars.values()
        )
        if community_support and exhaustive_communities:
            from .community_localize import localize_communities

            difference.extra_localizations["communities"] = localize_communities(
                space, difference.input_set
            )
        elif community_support and example.communities:
            difference.example["Community"] = " ".join(
                sorted(str(c) for c in example.communities)
            )
        elif community_support:
            difference.example["Community"] = "(none carried)"
        if "as-path-regexes" in described:
            difference.example["AS Path"] = described["as-path-regexes"]
        tag_support = any(index in support for index in space.tag.var_indices)
        if tag_support:
            difference.example["Tag"] = described.get("tag", "0")
        protocol_support = any(
            index in support for index in space.protocol.var_indices
        )
        if protocol_support:
            difference.example["Protocol"] = example.protocol


def localize_acl_differences(
    space: PacketSpace,
    differences: Sequence[SemanticDifference],
    acl1: Acl,
    acl2: Acl,
    backend: Optional[str] = None,
) -> None:
    """Attach address localizations for one pair's ACL differences.

    The per-dimension address vocabularies (previously rebuilt from
    both ACLs' lines for every difference), the projection variable
    lists, the predicate caches, and (under the bitset backends) the
    DAG atom decompositions are built once for the pair and shared
    across every difference — see :class:`LocalizeSession`.
    """
    # Dicts as insertion-ordered sets: first occurrences keep their order.
    vocabulary_src: Dict[Prefix, None] = {}
    vocabulary_dst: Dict[Prefix, None] = {}
    for acl in (acl1, acl2):
        for line in acl.lines:
            src_prefix = line.src.as_prefix()
            dst_prefix = line.dst.as_prefix()
            if src_prefix is not None:
                vocabulary_src.setdefault(src_prefix)
            if dst_prefix is not None:
                vocabulary_dst.setdefault(dst_prefix)

    session = LocalizeSession(backend=backend)
    dimensions = []
    for label, field, vocabulary in (
        ("srcIp", space.src_ip, vocabulary_src),
        ("dstIp", space.dst_ip, vocabulary_dst),
    ):
        keep = set(field.var_indices)
        drop = [
            index for index in range(space.manager.num_vars) if index not in keep
        ]
        dimensions.append((label, field, list(vocabulary), drop))

    for difference in differences:
        _localize_acl(space, difference, dimensions, session)


def _localize_acl(
    space: PacketSpace,
    difference: SemanticDifference,
    dimensions,
    session: LocalizeSession,
) -> None:
    """Attach source/destination address localizations and an example.

    Address vocabularies are the prefix-expressible wildcards of both
    ACLs; discontiguous wildcards make the space non-prefix-generated, in
    which case that dimension degrades to example-only (the paper's
    Campion similarly only emits exhaustive sets for the prefix-shaped
    dimensions).
    """
    difference.extra_localizations = {}
    for label, field, vocabulary, drop in dimensions:
        projected = space.manager.exists(difference.input_set, drop)
        try:
            localization = header_localize(
                projected,
                vocabulary,
                address_prefix_algebra(),
                lambda prefix: _address_pred(space, field, prefix),
                session=session,
                dimension=label,
            )
            difference.extra_localizations[label] = localization
        except HeaderLocalizeError:
            difference.extra_localizations[label] = None

    model = complete_model(difference.input_set, space.manager.num_vars)
    if model is not None:
        packet = space.decode(model)
        support = set(difference.input_set.support())
        difference.example = {}
        if any(index in support for index in space.protocol.var_indices):
            difference.example["protocol"] = IP_PROTOCOL_NAMES.get(
                packet.protocol, str(packet.protocol)
            )
        if any(index in support for index in space.src_port.var_indices):
            difference.example["srcPort"] = str(packet.src_port)
        if any(index in support for index in space.dst_port.var_indices):
            difference.example["dstPort"] = str(packet.dst_port)
        if any(index in support for index in space.icmp_type.var_indices):
            difference.example["icmpType"] = str(packet.icmp_type)


def _address_pred(space: PacketSpace, field, prefix: Prefix) -> Bdd:
    from ..model.acl import IpWildcard

    return space.wildcard_pred(field, IpWildcard.from_prefix(prefix))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _two_column_table(
    header: Tuple[str, str, str], rows: Sequence[Tuple[str, str, str]]
) -> str:
    """Render a label/left/right table with wrapped multi-line cells."""
    label_width = max([len(header[0])] + [len(r[0]) for r in rows]) if rows else 20

    def cell_lines(text: str) -> List[str]:
        return text.split("\n") if text else [""]

    column1 = max(
        [len(header[1])]
        + [len(line) for r in rows for line in cell_lines(r[1])]
    )
    column2 = max(
        [len(header[2])]
        + [len(line) for r in rows for line in cell_lines(r[2])]
    )
    separator = (
        "+" + "-" * (label_width + 2) + "+" + "-" * (column1 + 2) + "+" + "-" * (column2 + 2) + "+"
    )

    def render_row(row: Tuple[str, str, str]) -> List[str]:
        parts = [cell_lines(row[0]), cell_lines(row[1]), cell_lines(row[2])]
        height = max(len(p) for p in parts)
        lines = []
        for i in range(height):
            label = parts[0][i] if i < len(parts[0]) else ""
            left = parts[1][i] if i < len(parts[1]) else ""
            right = parts[2][i] if i < len(parts[2]) else ""
            lines.append(
                f"| {label.ljust(label_width)} | {left.ljust(column1)} | {right.ljust(column2)} |"
            )
        return lines

    output = [separator]
    output.extend(render_row(header))
    output.append(separator)
    for row in rows:
        output.extend(render_row(row))
        output.append(separator)
    return "\n".join(output)


def _render_localization(localization: Optional[Localization]) -> Tuple[str, str]:
    """(included, excluded) cell text from a localization."""
    if localization is None:
        return "(see example)", ""
    included = "\n".join(str(r) for r in localization.included)
    excluded = "\n".join(str(r) for r in localization.excluded)
    return included, excluded


def render_semantic_difference(difference: SemanticDifference) -> str:
    """One difference as a Table 2 / Table 7 style text table."""
    rows: List[Tuple[str, str, str]] = []
    if difference.kind is ComponentKind.ROUTE_MAP:
        included, excluded = _render_localization(difference.localization)
        rows.append(("Included Prefixes", included, ""))
        rows.append(("Excluded Prefixes", excluded, ""))
        community_localization = difference.extra_localizations.get("communities")
        if community_localization is not None and not community_localization.universal:
            rows.append(("Communities", community_localization.render(), ""))
        for label, value in difference.example.items():
            rows.append((label, value, ""))
        rows.append(("Policy Name", difference.class1.policy_name, difference.class2.policy_name))
    else:
        for label, key in (("srcIP", "srcIp"), ("dstIP", "dstIp")):
            localization = difference.extra_localizations.get(key)
            included, excluded = _render_localization(localization)
            if included or excluded:
                rows.append((f"Included {label}", included, ""))
                if excluded:
                    rows.append((f"Excluded {label}", excluded, ""))
        extra = ", ".join(f"{k}: {v}" for k, v in difference.example.items())
        if extra:
            rows.append(("Example", extra, ""))
        rows.append(("ACL Name", difference.class1.policy_name, difference.class2.policy_name))

    action1, action2 = difference.action_pair()
    rows.append(("Action", action1, action2))
    rows.append(("Text", difference.class1.text(), difference.class2.text()))
    header = ("", difference.router1, difference.router2)
    title = f"[{difference.kind.value}] {difference.context}".strip()
    return title + "\n" + _two_column_table(header, rows)


def render_structural_difference(difference: StructuralDifference) -> str:
    """One structural mismatch as a Table 4 style text table."""
    absent = "None"
    rows = [
        ("Component", difference.component, difference.component),
        (
            difference.attribute.title(),
            difference.value1 if difference.value1 is not None else absent,
            difference.value2 if difference.value2 is not None else absent,
        ),
        (
            "Text",
            difference.source1.render() or absent,
            difference.source2.render() or absent,
        ),
    ]
    header = ("", difference.router1, difference.router2)
    return f"[{difference.kind.value}]\n" + _two_column_table(header, rows)


def _coverage_notes(report: CampionReport) -> List[str]:
    """Degraded-coverage banner lines (aborted components, skipped stanzas)."""
    notes: List[str] = []
    for aborted in report.aborted:
        notes.append(aborted.render())
    for hostname in sorted(report.parse_diagnostics):
        diagnostics = report.parse_diagnostics[hostname]
        notes.append(
            f"note: {hostname}: {len(diagnostics)} stanza(s) skipped by lenient "
            "parsing; coverage is reduced"
        )
        notes.extend(f"  {diagnostic.render()}" for diagnostic in diagnostics)
    return notes


def render_report(report: CampionReport) -> str:
    """The full report for a router pair."""
    sections: List[str] = [
        f"Campion comparison: {report.router1} vs {report.router2}",
        f"Total differences: {report.total_differences()}",
        "",
    ]
    notes = _coverage_notes(report)
    if notes:
        sections.extend(notes)
        sections.append("")
    if report.is_equivalent():
        if notes:
            sections.append(
                "No differences found in the analyzed components "
                "(coverage reduced; see notes above)."
            )
        else:
            sections.append(
                "No differences found: configurations are behaviorally equivalent."
            )
        return "\n".join(sections)
    for index, difference in enumerate(report.semantic, start=1):
        sections.append(f"Difference {index} (semantic)")
        sections.append(render_semantic_difference(difference))
        sections.append("")
    for index, difference in enumerate(report.structural, start=1):
        sections.append(f"Difference {index} (structural)")
        sections.append(render_structural_difference(difference))
        sections.append("")
    for unmatched in report.unmatched:
        sections.append(
            f"[{unmatched.kind.value}] {unmatched.name}: present on "
            f"{unmatched.present_on}, missing on {unmatched.missing_on}"
            + (f" ({unmatched.context})" if unmatched.context else "")
        )
    return "\n".join(sections)
