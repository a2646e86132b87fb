"""The vendor-independent device configuration — the unit Campion compares.

:class:`DeviceConfig` is this reproduction's analogue of Batfish's
vendor-independent representation: everything the paper's Figure 4 marks
as *configurable* (brown nodes), with provenance back to the original
text.  Parsers for each dialect produce this; the Campion core consumes
it without knowing which vendor it came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..diagnostics import Diagnostic, Severity
from .types import SourceSpan

if TYPE_CHECKING:  # pragma: no cover - annotations only
    # Component modules load with the first object that needs them (a
    # parse, or a cached device unpickling), not with the device class.
    from .acl import Acl
    from .bgp import BgpProcess
    from .fingerprint import ComponentFingerprints, DeviceTemplate
    from .interface import Interface
    from .ospf import OspfProcess
    from .routemap import AsPathList, CommunityList, PrefixList, RouteMap
    from .static_route import ConnectedRoute, StaticRoute

__all__ = ["DeviceConfig", "DEFAULT_ADMIN_DISTANCES"]

# IOS defaults; Juniper's differ (e.g. OSPF internal 10) and the parser
# fills vendor defaults in so that StructuralDiff sees the *effective*
# distances, not the textual ones.
DEFAULT_ADMIN_DISTANCES: Dict[str, int] = {
    "connected": 0,
    "static": 1,
    "ebgp": 20,
    "ospf": 110,
    "ibgp": 200,
}


@dataclass
class DeviceConfig:
    """Everything Campion models about one router."""

    hostname: str
    vendor: str = "unknown"
    filename: str = "<config>"
    interfaces: Dict[str, Interface] = field(default_factory=dict)
    static_routes: List[StaticRoute] = field(default_factory=list)
    prefix_lists: Dict[str, PrefixList] = field(default_factory=dict)
    community_lists: Dict[str, CommunityList] = field(default_factory=dict)
    as_path_lists: Dict[str, AsPathList] = field(default_factory=dict)
    route_maps: Dict[str, RouteMap] = field(default_factory=dict)
    acls: Dict[str, Acl] = field(default_factory=dict)
    bgp: Optional[BgpProcess] = None
    ospf: Optional[OspfProcess] = None
    admin_distances: Dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_ADMIN_DISTANCES)
    )
    raw_lines: Tuple[str, ...] = ()
    # Parse diagnostics (lenient mode records-and-skips; see
    # repro.diagnostics).  Error severity means a stanza we model could
    # not be parsed, so comparisons over this device have reduced
    # coverage and reports must say so.
    diagnostics: Tuple[Diagnostic, ...] = ()

    @property
    def fingerprints(self) -> "ComponentFingerprints":
        """Content-addressed component fingerprints, computed lazily once.

        Parsers seal them (:meth:`seal`) so every parsed device carries
        its fingerprints; the cached value pickles with the device, so
        the on-disk artifact cache never recomputes it.
        """
        cached = self.__dict__.get("_fingerprints")
        if cached is None:
            from .fingerprint import compute_fingerprints

            cached = self.__dict__["_fingerprints"] = compute_fingerprints(self)
        return cached

    @property
    def template(self) -> "DeviceTemplate":
        """Template fingerprint + hole substitution, computed lazily once.

        The near-symmetry layer (``repro.core.near_symmetry``) reads
        this.  Parsers seal it (:meth:`seal`), so it pickles with the
        device and a cached device never recomputes it.
        """
        cached = self.__dict__.get("_template")
        if cached is None:
            from .fingerprint import compute_template

            cached = self.__dict__["_template"] = compute_template(self)
        return cached

    @property
    def reachable_spans(self) -> "Dict[Tuple[str, str], Tuple[SourceSpan, ...]]":
        """``(kind, name) -> spans`` reachable from each ACL and route map.

        Coverage and localization replay read policy footprints from
        here (see :mod:`repro.model.spans`).  Parsers seal it
        (:meth:`seal`), so it pickles with the device and a cached
        device is never walked for its spans.
        """
        cached = self.__dict__.get("_reachable_spans")
        if cached is None:
            from .spans import reachable_span_table

            cached = self.__dict__["_reachable_spans"] = reachable_span_table(self)
        return cached

    def seal(self, acl_digests: Optional[Dict[str, str]] = None) -> None:
        """Compute now every fact a cached device carries.

        That is :attr:`fingerprints`, :attr:`template` and
        :attr:`reachable_spans`.  Parsers call this once the model is
        complete, passing the digests of ACLs they took from the stanza
        memo so those ACLs are not fingerprinted again.  The model must
        not change afterwards: the sealed facts would go stale.
        """
        if "_fingerprints" not in self.__dict__:
            from .fingerprint import compute_fingerprints

            self.__dict__["_fingerprints"] = compute_fingerprints(self, acl_digests)
        self.template
        self.reachable_spans

    def parse_errors(self) -> List[Diagnostic]:
        """Error-severity parse diagnostics (skipped modeled stanzas)."""
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def parse_degraded(self) -> bool:
        """Whether lenient parsing skipped stanzas Campion models."""
        return bool(self.parse_errors())

    def connected_routes(self) -> List[ConnectedRoute]:
        """Connected routes contributed by addressed, enabled interfaces."""
        routes = []
        for interface in self.interfaces.values():
            route = interface.connected_route()
            if route is not None:
                routes.append(route)
        return sorted(routes)

    def line_count(self) -> int:
        """Number of raw configuration lines."""
        return len(self.raw_lines)

    def span_for(self, start: int, end: int) -> SourceSpan:
        """A SourceSpan over 1-based raw line numbers [start, end]."""
        lines = tuple(
            self.raw_lines[number - 1]
            for number in range(start, end + 1)
            if 1 <= number <= len(self.raw_lines)
        )
        return SourceSpan(self.filename, start, end, lines)
