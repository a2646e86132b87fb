"""Result types for Campion's checks.

A Campion run over a router pair produces:

* :class:`SemanticDifference` — one per behaviorally-differing pair of
  paths through two corresponding ACLs or route maps (the quintuple
  ``(i, a₁, a₂, t₁, t₂)`` of §3.1, with HeaderLocalize output attached),
* :class:`StructuralDifference` — one per structural mismatch in a
  stylized component (static routes, BGP/OSPF properties, ...),
* :class:`UnmatchedPolicy` — components present on one router only
  (MatchPolicies reports these; a missing neighbor or ACL is itself a
  difference), and
* :class:`CampionReport` — everything for one router pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..diagnostics import Diagnostic
from ..model.types import EquivalenceClass, SourceSpan

if TYPE_CHECKING:  # pragma: no cover - annotations only; no engine import
    from ..bdd import Bdd

__all__ = [
    "AbortedAnalysis",
    "ComponentKind",
    "SemanticDifference",
    "StructuralDifference",
    "UnmatchedPolicy",
    "CampionReport",
]


class ComponentKind(enum.Enum):
    """Which configuration component a difference belongs to (Table 1)."""

    ACL = "ACLs"
    ROUTE_MAP = "Route Maps"
    STATIC_ROUTE = "Static Routes"
    CONNECTED_ROUTE = "Connected Routes"
    BGP_PROPERTY = "Other BGP Properties"
    OSPF_PROPERTY = "OSPF Properties"
    ADMIN_DISTANCE = "Administrative Distances"

    def check_used(self) -> str:
        """The check type per Table 1."""
        if self in (ComponentKind.ACL, ComponentKind.ROUTE_MAP):
            return "SemanticDiff"
        return "StructuralDiff"


@dataclass
class SemanticDifference:
    """One behavioral difference between two component paths.

    ``input_set`` is the BDD of inputs treated differently (the paper's
    ``i``); ``class1``/``class2`` carry the actions and text (``a``/``t``);
    ``localization`` fields are filled in by Present/HeaderLocalize; and
    ``example`` holds one concrete witness for the non-exhaustive
    dimensions (e.g. communities — §3.2's "single example").
    """

    kind: ComponentKind
    input_set: Bdd
    class1: EquivalenceClass
    class2: EquivalenceClass
    router1: str = "router1"
    router2: str = "router2"
    context: str = ""
    localization: Optional[object] = None  # Localization over prefix ranges
    extra_localizations: Dict[str, object] = field(default_factory=dict)
    example: Dict[str, str] = field(default_factory=dict)

    @property
    def policy_name(self) -> str:
        """The compared policy's name (Policy Name row)."""
        return self.class1.policy_name

    def action_pair(self) -> Tuple[str, str]:
        """Both sides' action descriptions (Action row)."""
        return _describe_action(self.class1.action), _describe_action(
            self.class2.action
        )


def _describe_action(action: object) -> str:
    """Uniform ACCEPT/REJECT vocabulary for both component kinds (the
    paper's tables use ACCEPT/REJECT for ACLs and route maps alike)."""
    describe = getattr(action, "describe", None)
    if callable(describe):
        return describe()
    from ..model.acl import AclAction

    if isinstance(action, AclAction):
        return "ACCEPT" if action is AclAction.PERMIT else "REJECT"
    return str(action).upper()


@dataclass(frozen=True)
class StructuralDifference:
    """One structural mismatch: a component key/attribute whose value
    differs (or exists on only one side).  ``None`` means "absent"."""

    kind: ComponentKind
    component: str  # e.g. "static route 10.1.1.2/31", "neighbor 10.0.0.1"
    attribute: str  # e.g. "next-hop", "send-community", "presence"
    value1: Optional[str]
    value2: Optional[str]
    source1: SourceSpan = field(default_factory=SourceSpan, compare=False)
    source2: SourceSpan = field(default_factory=SourceSpan, compare=False)
    router1: str = "router1"
    router2: str = "router2"

    def is_presence_diff(self) -> bool:
        """Whether the component exists on only one router."""
        return self.value1 is None or self.value2 is None


@dataclass(frozen=True)
class AbortedAnalysis:
    """One component whose comparison was aborted by a resource budget.

    A BDD blow-up on one pathological route map must not take down the
    whole run: the offending component is reported as *aborted* (with
    the budget that tripped) while every other component's verdict —
    still sound per Theorem 3.3 — stands.
    """

    kind: ComponentKind
    component: str  # e.g. "route map POL", "ACL 101"
    reason: str  # human-readable abort cause
    resource: str = ""  # "nodes" | "deadline" | "" when unknown

    def render(self) -> str:
        """One-line rendering for text reports."""
        return f"[{self.kind.value}] {self.component}: analysis aborted: {self.reason}"


@dataclass(frozen=True)
class UnmatchedPolicy:
    """A policy/structure that MatchPolicies could not pair."""

    kind: ComponentKind
    name: str
    present_on: str  # hostname of the router that has it
    missing_on: str
    context: str = ""


@dataclass
class CampionReport:
    """All differences found between one pair of router configurations."""

    router1: str
    router2: str
    # Live differences, and localized memo hits replayed in their stored
    # form (repro.core.replay.ReplayedDifference), which read as
    # SemanticDifference and serialize without being rebuilt.
    semantic: List[SemanticDifference] = field(default_factory=list)
    structural: List[StructuralDifference] = field(default_factory=list)
    unmatched: List[UnmatchedPolicy] = field(default_factory=list)
    # Components whose analysis tripped a resource budget and was
    # skipped; their verdict is unknown, everything else's stands.
    aborted: List[AbortedAnalysis] = field(default_factory=list)
    # Error-severity parse diagnostics per hostname (lenient parsing
    # skipped stanzas Campion models, so coverage is reduced).
    parse_diagnostics: Dict[str, List[Diagnostic]] = field(default_factory=dict)

    def total_differences(self) -> int:
        """Count of all differences of every kind."""
        return len(self.semantic) + len(self.structural) + len(self.unmatched)

    def is_equivalent(self) -> bool:
        """Campion's verdict: no differences of any kind (Theorem 3.3's
        hypothesis holds, so behavior is guaranteed equivalent).

        An aborted component blocks the claim — its verdict is unknown,
        so the pair cannot be pronounced equivalent.
        """
        return self.total_differences() == 0 and not self.aborted

    def is_degraded(self) -> bool:
        """Whether the verdict covers less than the full configurations
        (budget-aborted components or stanzas lenient parsing skipped)."""
        return bool(self.aborted) or any(
            diagnostics for diagnostics in self.parse_diagnostics.values()
        )

    def by_kind(self, kind: ComponentKind) -> List[object]:
        """All differences belonging to one Table 1 component."""
        result: List[object] = [d for d in self.semantic if d.kind is kind]
        result.extend(d for d in self.structural if d.kind is kind)
        result.extend(d for d in self.unmatched if d.kind is kind)
        return result
