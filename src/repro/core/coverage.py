"""Configuration coverage — which policy lines the diff exercised.

NetCov's observation (PAPERS.md): operators only trust an analysis run
when they can see *which configuration lines it actually used*.  For a
fleet run the analogue is per-device policy-line coverage: of the lines
that define each ACL and route map, which ones participated in some
localized difference against the fleet reference (the spans
SemanticDiff/StructuralDiff/Present already attach to every reported
difference), and which policies produced no difference at all —
either genuinely conforming or dead/unreached policy the run says
nothing further about.

Coverage is a pure function of the finished :class:`FleetReport` and
the parsed devices, so it is byte-identical across set-algebra
backends, worker counts, and symmetry compression — exactly like the
rest of the serialized report (schema v4 carries it).
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..model.device import DeviceConfig
from ..model.types import SourceSpan
from .results import ComponentKind

__all__ = [
    "PolicyCoverage",
    "DeviceCoverage",
    "policy_spans",
    "compute_fleet_coverage",
]


@dataclass(frozen=True)
class PolicyCoverage:
    """Line coverage of one named policy (ACL or route map)."""

    kind: str  # "acl" | "route-map"
    name: str
    #: every 1-based config line that defines this policy (including
    #: lines of resolved sub-objects such as referenced prefix lists)
    lines: Tuple[int, ...]
    #: the subset of ``lines`` touched by some localized difference
    exercised: Tuple[int, ...]

    @property
    def is_exercised(self) -> bool:
        """Whether any line of this policy appears in a difference."""
        return bool(self.exercised)

    def describe(self) -> str:
        """Short ``kind name`` label, e.g. ``acl GW_POLICY``."""
        return f"{self.kind} {self.name}"


@dataclass(frozen=True)
class DeviceCoverage:
    """Per-device configuration coverage, policies sorted by name."""

    hostname: str
    policies: Tuple[PolicyCoverage, ...]

    @property
    def policy_lines(self) -> int:
        """Total policy-defining lines on this device."""
        return sum(len(policy.lines) for policy in self.policies)

    @property
    def exercised_lines(self) -> int:
        """Policy lines that participated in some localized diff."""
        return sum(len(policy.exercised) for policy in self.policies)

    @property
    def unexercised(self) -> List[str]:
        """Policies no difference touched (conforming or dead policy)."""
        return [
            policy.describe()
            for policy in self.policies
            if not policy.is_exercised
        ]

    def to_dict(self) -> Dict:
        """JSON-compatible, deterministically ordered representation."""
        return {
            "policy_lines": self.policy_lines,
            "exercised_lines": self.exercised_lines,
            "policies": [
                {
                    "kind": policy.kind,
                    "name": policy.name,
                    "lines": len(policy.lines),
                    "exercised": list(policy.exercised),
                }
                for policy in self.policies
            ],
            "unexercised": self.unexercised,
        }

    def render(self) -> str:
        """One summary line for the CLI coverage section."""
        parts = [
            f"{self.hostname}: {self.exercised_lines}/{self.policy_lines}"
            " policy line(s) exercised"
        ]
        if self.unexercised:
            parts.append("untouched: " + ", ".join(self.unexercised))
        return "; ".join(parts)


#: Marks SourceSpan types in ``_CHILDREN``.
_SPAN = object()

#: type -> how the span walk reaches an instance's children: ``_SPAN``,
#: a function returning the children in visit order, or ``None`` for
#: types with nothing to descend into (str, int, enums, ...).
_CHILDREN: Dict[type, object] = {}


def _children_of(cls: type) -> object:
    """The ``_CHILDREN`` entry for ``cls``, computed once per type."""
    if issubclass(cls, SourceSpan):
        return _SPAN
    if dataclasses.is_dataclass(cls):
        names = tuple(field.name for field in dataclasses.fields(cls))
        if len(names) == 1:
            getter = operator.attrgetter(names[0])
            return lambda value: (getter(value),)
        return operator.attrgetter(*names) if names else None
    if issubclass(cls, dict):
        return operator.methodcaller("values")
    if issubclass(cls, (list, tuple, set, frozenset)):
        return iter
    return None


def _collect_spans(children, value: object, spans: List[SourceSpan]) -> None:
    for item in children(value):
        try:
            step = _CHILDREN[type(item)]
        except KeyError:
            step = _CHILDREN[type(item)] = _children_of(type(item))
        if step is None:
            continue
        if step is _SPAN:
            if not item.is_empty():
                spans.append(item)
        else:
            _collect_spans(step, item, spans)


def _walk_spans(value: object) -> List[SourceSpan]:
    """Every non-empty SourceSpan reachable from a model object.

    Depth-first: dataclass fields in declaration order, dict values and
    list/tuple/set items in iteration order.  The order is persisted:
    :func:`~repro.core.replay.localization_provenance` hashes the spans
    in it, so reordering the walk orphans every cached localized entry.
    """
    spans: List[SourceSpan] = []
    _collect_spans(iter, (value,), spans)
    return spans


def _span_lines(span: SourceSpan, filename: str) -> Iterable[int]:
    if span.filename == filename and span.start_line > 0:
        return range(span.start_line, span.end_line + 1)
    return ()


def policy_spans(device: DeviceConfig) -> List[Tuple[str, str, FrozenSet[int]]]:
    """``(kind, name, line_numbers)`` for every policy on a device.

    Line numbers come from every span reachable from the policy object,
    so a route map's footprint includes the definition lines of the
    prefix/community lists its clauses resolve — those lines shape the
    policy's behavior, so a difference touching the clause exercises
    them too (they are where the operator must look).
    """
    result: List[Tuple[str, str, FrozenSet[int]]] = []
    for kind, policies in (("acl", device.acls), ("route-map", device.route_maps)):
        for name in sorted(policies):
            lines: Set[int] = set()
            for span in _walk_spans(policies[name]):
                lines.update(_span_lines(span, device.filename))
            result.append((kind, name, frozenset(lines)))
    return result


_UNMATCHED_KINDS = {
    ComponentKind.ACL: "acl",
    ComponentKind.ROUTE_MAP: "route-map",
}


def _touched(
    devices_by_name: Dict[str, DeviceConfig], fleet_report
) -> Dict[str, Tuple[Set[int], Set[Tuple[str, str]]]]:
    """Per device: difference-touched lines + wholly-unmatched policies.

    One pass over the reference reports.  The reference device appears
    as ``router1`` in every one of them; each other device only in its
    own.  An unmatched policy (present on one side only) has no
    differing-line pair to point at — the policy's existence *is* the
    difference — so it is returned separately and marks the whole
    policy exercised.
    """
    touched = {
        hostname: (set(), set()) for hostname in fleet_report.hostnames
    }
    reference = fleet_report.reference
    reference_file = devices_by_name[reference].filename
    reference_lines, reference_unmatched = touched[reference]
    for other, report in fleet_report.reports.items():
        other_file = devices_by_name[other].filename
        lines, unmatched = touched[other]
        for difference in report.semantic:
            reference_lines.update(
                _span_lines(difference.class1.source, reference_file)
            )
            lines.update(_span_lines(difference.class2.source, other_file))
        for difference in report.structural:
            reference_lines.update(
                _span_lines(difference.source1, reference_file)
            )
            lines.update(_span_lines(difference.source2, other_file))
        for policy in report.unmatched:
            kind = _UNMATCHED_KINDS.get(policy.kind)
            if kind is None:
                continue
            if policy.present_on == reference:
                reference_unmatched.add((kind, policy.name))
            elif policy.present_on == other:
                unmatched.add((kind, policy.name))
    return touched


def compute_fleet_coverage(
    devices_by_name: Dict[str, DeviceConfig], fleet_report
) -> Dict[str, DeviceCoverage]:
    """Per-device coverage for a finished fleet comparison.

    Deterministic in the report content alone: spans recorded in the
    reference reports are intersected with each device's policy line
    sets, so any knob that leaves the serialized report unchanged
    (backend, workers, memo warmth, symmetry compression) leaves
    coverage unchanged too.
    """
    coverage: Dict[str, DeviceCoverage] = {}
    touched_by_host = _touched(devices_by_name, fleet_report)
    for hostname in fleet_report.hostnames:
        touched, unmatched = touched_by_host[hostname]
        policies = []
        for kind, name, lines in policy_spans(devices_by_name[hostname]):
            if (kind, name) in unmatched:
                exercised = tuple(sorted(lines))
            else:
                exercised = tuple(sorted(lines & touched))
            policies.append(
                PolicyCoverage(
                    kind=kind, name=name,
                    lines=tuple(sorted(lines)), exercised=exercised,
                )
            )
        coverage[hostname] = DeviceCoverage(
            hostname=hostname, policies=tuple(policies)
        )
    return coverage
