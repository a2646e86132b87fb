"""Campion core: SemanticDiff, StructuralDiff, HeaderLocalize, ConfigDiff.

Names are re-exported lazily: reading one imports its submodule, so a
warm run that replays every component from the cache never loads the
BDD engine, the encoders or the set-algebra backends.
"""

from .._lazy import lazy_exports

# Bound eagerly: each name is also a submodule's, and importing that
# submodule would otherwise leave the module, not the function, here.
from .config_diff import config_diff
from .header_localize import header_localize
from .match_policies import match_policies

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "community_localize": (
            "CommunityCondition",
            "CommunityLocalization",
            "localize_communities",
        ),
        "config_diff": (
            "COMPONENT_CHECKS",
            "PairAborted",
            "config_diff",
            "config_diff_summary",
        ),
        "coverage": (
            "DeviceCoverage",
            "PolicyCoverage",
            "compute_fleet_coverage",
            "policy_spans",
        ),
        "ddnf": (
            "DdnfDag",
            "DdnfNode",
            "RangeAlgebra",
            "address_prefix_algebra",
            "build_dag",
            "cached_dag",
            "close_under_intersection",
            "dag_cache_clear",
            "prefix_range_algebra",
        ),
        "fleet": (
            "COMPRESS_MODES",
            "FleetReport",
            "SymmetryStats",
            "compare_fleet",
            "resolve_compress",
        ),
        "grouping": ("IssueGroup", "group_differences"),
        "header_localize": (
            "DagAtoms",
            "FlatTerm",
            "GetMatchStats",
            "HeaderLocalizeError",
            "Localization",
            "LocalizeSession",
            "MatchTerm",
            "compute_dag_atoms",
            "flatten_terms",
            "get_match",
            "header_localize",
            "minimal_flat_terms",
        ),
        "match_policies": (
            "AclPair",
            "PolicyPairing",
            "RouteMapPair",
            "match_policies",
        ),
        "memo": (
            "DiffMemo",
            "acl_key",
            "route_map_key",
            "semantic_entry",
            "structural_entry",
            "structural_key",
        ),
        "near_symmetry": (
            "SymmetryPlan",
            "pair_pattern",
            "pair_signature",
            "plan_near_pairs",
            "verify_template_class",
        ),
        "parallel": (
            "PairOutcome",
            "pairwise_count_outcomes",
            "resolve_node_limit",
            "resolve_timeout",
        ),
        "present": (
            "localize_acl_differences",
            "localize_route_map_differences",
            "render_report",
            "render_semantic_difference",
            "render_structural_difference",
        ),
        "replay": (
            "provenance_digest",
            "replay_semantic_differences",
            "semantic_difference_from_dict",
        ),
        "results": (
            "AbortedAnalysis",
            "CampionReport",
            "ComponentKind",
            "SemanticDifference",
            "StructuralDifference",
            "UnmatchedPolicy",
        ),
        "semantic_diff": (
            "canonical_action_key",
            "diff_acls",
            "diff_route_maps",
            "semantic_diff_classes",
        ),
        "serialize": (
            "fleet_report_to_dict",
            "report_to_dict",
            "report_to_json",
            "semantic_difference_to_dict",
            "structural_difference_to_dict",
            "write_json",
        ),
        "setalg": (
            "AtomsBackend",
            "BACKEND_NAMES",
            "BddBackend",
            "DEFAULT_BACKEND",
            "SetAlgebraBackend",
            "resolve_backend",
        ),
        "structural_diff": (
            "diff_admin_distances",
            "diff_bgp_properties",
            "diff_connected_routes",
            "diff_ospf_properties",
            "diff_static_routes",
            "structural_diff_all",
        ),
        "topology": (
            "Adjacency",
            "BackupCandidate",
            "audit_backup_pairs",
            "discover_backup_pairs",
            "infer_adjacencies",
        ),
    },
)
