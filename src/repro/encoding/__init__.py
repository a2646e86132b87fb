"""BDD encodings of packets, route advertisements, and component paths."""

from .acl_encoder import acl_equivalence_classes, first_match_classes, shadowed_lines
from .classes import EquivalenceClass, RouteMapAction
from .packet import PacketExample, PacketSpace
from .route import ROUTE_PROTOCOLS, RouteExample, RouteSpace, community_universe
from .routemap_encoder import clause_match_pred, route_map_equivalence_classes

__all__ = [
    "ROUTE_PROTOCOLS",
    "EquivalenceClass",
    "PacketExample",
    "PacketSpace",
    "RouteExample",
    "RouteMapAction",
    "RouteSpace",
    "acl_equivalence_classes",
    "clause_match_pred",
    "community_universe",
    "first_match_classes",
    "route_map_equivalence_classes",
    "shadowed_lines",
]
