"""Vendor-independent configuration model (Batfish-representation substitute).

Names are re-exported lazily, so unpickling a cached device loads only
the model modules its objects come from.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "acl": ("Acl", "AclAction", "AclLine", "IpWildcard", "PortRange"),
        "bgp": ("BgpNeighbor", "BgpProcess", "Redistribution"),
        "device": ("DEFAULT_ADMIN_DISTANCES", "DeviceConfig"),
        "eval": (
            "ConcreteRoute",
            "PolicyResult",
            "evaluate_clause_match",
            "evaluate_route_map",
        ),
        "interface": ("Interface",),
        "ospf": ("OspfInterfaceSettings", "OspfProcess", "OspfRedistribution"),
        "routemap": (
            "Action",
            "AsPathList",
            "AsPathListEntry",
            "CommunityList",
            "CommunityListEntry",
            "MatchAsPath",
            "MatchCommunities",
            "MatchCondition",
            "MatchPrefixList",
            "MatchProtocol",
            "MatchTag",
            "PrefixList",
            "PrefixListEntry",
            "RouteMap",
            "RouteMapClause",
            "SetAction",
            "SetAsPathPrepend",
            "SetCommunities",
            "SetLocalPref",
            "SetMed",
            "SetNextHop",
            "SetTag",
            "community_regex_matches",
        ),
        "static_route": ("ConnectedRoute", "StaticRoute"),
        "types": (
            "Community",
            "ConfigError",
            "HostPrefix",
            "Prefix",
            "PrefixRange",
            "SourceSpan",
            "int_to_ip",
            "ip_to_int",
            "wildcard_to_prefix_len",
        ),
    },
)
