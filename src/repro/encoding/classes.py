"""Path equivalence classes — the unit SemanticDiff compares (§3.1).

Both ACLs and route maps are sequences of if-then-else steps, so the
input space partitions by *which step fires first* (with the implicit
default as the final step).  Each partition cell becomes an
:class:`EquivalenceClass`: a BDD predicate over the input space, the
action taken on that path, and the configuration text on the path.

The lists produced here are exactly the paper's

    L = [(l_1, a_1, t_1), ..., (l_m, a_m, t_m)]

with the invariants (checked by property tests):

* the predicates are pairwise disjoint, and
* their union is the whole (well-formed) input space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..model.routemap import Action, SetAction
from ..model.types import EquivalenceClass

__all__ = ["RouteMapAction", "EquivalenceClass"]


@dataclass(frozen=True)
class RouteMapAction:
    """Canonical disposition of a route-map path: accept/reject plus the
    field transformations applied on acceptance.

    Set actions are normalized away on DENY paths (a rejected route's
    attribute edits are unobservable), so two deny clauses always compare
    equal regardless of their ``set`` statements.
    """

    action: Action
    sets: Tuple[SetAction, ...] = ()

    def __post_init__(self) -> None:
        if self.action is Action.DENY and self.sets:
            object.__setattr__(self, "sets", ())
        else:
            # Order-insensitive: IOS applies sets within one stanza in a
            # fixed field order, so textual order carries no meaning.
            object.__setattr__(
                self, "sets", tuple(sorted(self.sets, key=lambda s: s.describe()))
            )

    def describe(self) -> str:
        """Multi-line disposition, e.g. ``SET LOCAL PREF 30\nACCEPT``."""
        parts = [s.describe() for s in self.sets]
        parts.append("ACCEPT" if self.action is Action.PERMIT else "REJECT")
        return "\n".join(parts)
