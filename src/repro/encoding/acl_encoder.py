"""Path equivalence classes for ACLs (§3.1, applied to packet filters).

An ACL's paths are "line i fired first" for each line plus "no line
fired" for the default.  Unreachable lines (shadowed by earlier rules)
produce empty predicates and are dropped — they cannot witness a
behavioral difference, though :func:`shadowed_lines` reports them since
they are a useful lint on their own.
"""

from __future__ import annotations

from typing import Iterable, List

from ..bdd import Bdd
from ..model.acl import Acl, AclLine
from ..model.types import SourceSpan
from .classes import EquivalenceClass
from .packet import PacketSpace

__all__ = ["acl_equivalence_classes", "first_match_classes", "shadowed_lines"]


def acl_equivalence_classes(space: PacketSpace, acl: Acl) -> List[EquivalenceClass]:
    """Partition the packet space by first-matching line of ``acl``.

    Returns one :class:`EquivalenceClass` per reachable line plus one for
    the implicit default action; predicates are disjoint and cover the
    whole packet space.
    """
    return first_match_classes(
        space, acl, space.manager.true, range(len(acl.lines))
    )


def first_match_classes(
    space: PacketSpace, acl: Acl, region: Bdd, indices: Iterable[int]
) -> List[EquivalenceClass]:
    """Partition ``region`` by first-matching line among ``indices``.

    Walks ``acl.lines[i]`` for each ``i`` in ``indices`` (ascending), so
    the classes are exactly the full partition's classes intersected
    with ``region`` whenever every skipped line is disjoint from it.
    Each class keeps its line's original ``index``, ``step_name`` and
    ``source``; empty classes are dropped.
    """
    classes: List[EquivalenceClass] = []
    reach = region
    for index in indices:
        line = acl.lines[index]
        fire = reach & space.line_pred(line)
        if fire:
            classes.append(
                EquivalenceClass(
                    predicate=fire,
                    action=line.action,
                    policy_name=acl.name,
                    step_name=line.name or line.describe(),
                    source=line.source,
                    index=index,
                )
            )
            reach = reach - fire
    if reach:
        classes.append(
            EquivalenceClass(
                predicate=reach,
                action=acl.default_action,
                policy_name=acl.name,
                step_name=f"default {acl.default_action}",
                source=SourceSpan(),
                index=len(acl.lines),
                is_default=True,
            )
        )
    return classes


def shadowed_lines(space: PacketSpace, acl: Acl) -> List[AclLine]:
    """Lines that can never fire because earlier lines cover them."""
    fired = {cls.index for cls in acl_equivalence_classes(space, acl)}
    return [line for index, line in enumerate(acl.lines) if index not in fired]
