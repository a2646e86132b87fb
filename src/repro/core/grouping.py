"""Grouping raw outputs into underlying issues (Table 8's two columns).

Campion partitions by path, so "a single underlying difference in the
configuration [can] result in multiple lines of outputted differences"
(§5.2) — the paper therefore reports two counts per route map:
*Outputted Differences* (raw class pairs) and *Differences Reported*
(distinct issues sent to operators).  This module mechanizes the
grouping the authors did by hand with a structural rule:

    two raw differences are one issue when they are anchored at the
    same clause of the same router **and** exhibit the same action
    disagreement.

Rationale: when one clause of router A disagrees identically with
several paths of router B (because B's "everything else" is split over
several terms), the operator perceives a single issue — the paper's
Export 5 case, where one missing prefix produced two outputs across two
Juniper terms.  Conversely, the same clause disagreeing *differently*
(accept-with-set vs plain accept) flags genuinely distinct issues, so
Export 1's five outputs stay five.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .results import SemanticDifference

__all__ = ["IssueGroup", "group_differences"]

GroupKey = Tuple[str, str, str, str]


@dataclass
class IssueGroup:
    """One underlying issue: the raw differences attributed to it."""

    key: GroupKey
    differences: List[SemanticDifference] = field(default_factory=list)

    @property
    def outputted(self) -> int:
        """How many raw outputs this issue produced."""
        return len(self.differences)

    def describe(self) -> str:
        """One-line issue summary naming the anchoring clause."""
        side, clause, action1, action2 = self.key
        flat1 = action1.replace("\n", " / ")
        flat2 = action2.replace("\n", " / ")
        return (
            f"{side} clause {clause!r}: {flat1} vs {flat2} "
            f"({self.outputted} outputted)"
        )


def _anchor_side(difference: SemanticDifference) -> Tuple[str, str]:
    """The (side, clause) likely responsible for a difference.

    The non-default clause is the culprit candidate; when both sides
    are specific, prefer the clause with match conditions over a
    catch-all, then router1 (the reference config in replacement
    workflows).
    """
    class1, class2 = difference.class1, difference.class2
    if class1.is_default and not class2.is_default:
        return ("router2", class2.step_name)
    if class2.is_default and not class1.is_default:
        return ("router1", class1.step_name)
    return ("router1", class1.step_name)


def group_differences(differences: Sequence[SemanticDifference]) -> List[IssueGroup]:
    """Cluster raw differences into underlying issues.

    The grouping key is (anchor side, anchor clause, action pair);
    ordering follows first appearance so issue numbering is stable.
    """
    groups: Dict[GroupKey, IssueGroup] = {}
    ordered: List[IssueGroup] = []
    for difference in differences:
        side, clause = _anchor_side(difference)
        action1, action2 = difference.action_pair()
        key = (side, clause, action1, action2)
        group = groups.get(key)
        if group is None:
            group = IssueGroup(key=key)
            groups[key] = group
            ordered.append(group)
        group.differences.append(difference)
    return ordered
