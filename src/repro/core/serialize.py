"""JSON serialization of Campion reports.

``campion compare --json`` and CI integrations need machine-readable
output; this module renders a :class:`~repro.core.results.CampionReport`
as plain JSON-compatible dictionaries.  The schema mirrors the report
tables: each semantic difference carries its included/excluded ranges,
action pair, text localization (with file/line provenance), and any
examples; structural differences carry component/attribute/values.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..model.types import SourceSpan
from .header_localize import Localization
from .results import CampionReport, SemanticDifference, StructuralDifference

__all__ = [
    "SCHEMA_VERSION",
    "semantic_difference_to_dict",
    "structural_difference_to_dict",
    "report_to_dict",
    "report_to_json",
    "fleet_report_to_dict",
]

# v2: adds "degraded", "aborted" (budget-tripped components), and
# "parse_diagnostics" (stanzas lenient parsing skipped, per router).
# v3: adds fleet-report serialization (fleet_report_to_dict) and is the
# schema stamped into cached per-component diff entries (repro.cache);
# cache entries from older schemas are rejected as stale on read.
# v4: fleet reports gain "notes" (previously dropped on the floor —
# now deterministic, so byte-identity across backends still holds),
# a machine-readable "partial" degradation flag, and per-device
# "coverage" (policy lines exercised by localized diffs vs. untouched
# policy).  Bumping the stamp also invalidates pre-v4 cache entries.
# v5: memo/cache entries gain the localization-replay fields
# ("localized", "provenance", "replay" — see repro.core.replay); the
# report schema itself is unchanged, but the bump invalidates pre-v5
# cache entries so collect mode never replays an entry whose
# localization fields predate the replay protocol.
SCHEMA_VERSION = 5


def _span_to_dict(span: SourceSpan) -> Optional[Dict]:
    if span.is_empty():
        return None
    return {
        "file": span.filename,
        "start_line": span.start_line,
        "end_line": span.end_line,
        "text": list(span.text),
    }


def _localization_to_dict(localization: Optional[Localization]) -> Optional[Dict]:
    if localization is None:
        return None
    return {
        "terms": [
            {"range": str(term.range), "minus": [str(m) for m in term.minus]}
            for term in localization.terms
        ],
        "included": [str(r) for r in localization.included],
        "excluded": [str(r) for r in localization.excluded],
    }


def semantic_difference_to_dict(difference: SemanticDifference) -> Dict:
    """One semantic difference as JSON-compatible dictionaries.

    Hostname-free by construction (hostnames appear only at the report
    top level), so this is also the per-component *cache entry* format
    (:mod:`repro.core.memo`).  Text-localization spans do carry the
    representative pair's file/line provenance, which is why collect
    mode only replays memoized entries whose provenance digest matches
    the current pair (span filenames are then the sole per-device
    field, rewritten at replay — :mod:`repro.core.replay`); other
    non-zero entries replay as *counts* or re-localize live.
    """
    return _semantic_to_dict(difference)


def structural_difference_to_dict(difference: StructuralDifference) -> Dict:
    """One structural difference as JSON-compatible dictionaries
    (hostname-free; see :func:`semantic_difference_to_dict`)."""
    return _structural_to_dict(difference)


def _semantic_to_dict(difference: SemanticDifference) -> Dict:
    action1, action2 = difference.action_pair()
    result = {
        "kind": difference.kind.value,
        "context": difference.context,
        "policy": {
            "router1": difference.class1.policy_name,
            "router2": difference.class2.policy_name,
        },
        "step": {
            "router1": difference.class1.step_name,
            "router2": difference.class2.step_name,
        },
        "action": {"router1": action1, "router2": action2},
        "text": {
            "router1": _span_to_dict(difference.class1.source),
            "router2": _span_to_dict(difference.class2.source),
        },
        "localization": _localization_to_dict(difference.localization),
        "example": dict(difference.example),
    }
    extra = {}
    for key, value in difference.extra_localizations.items():
        if value is None:
            extra[key] = None
        elif isinstance(value, Localization):
            extra[key] = _localization_to_dict(value)
        else:  # CommunityLocalization and future kinds render themselves
            extra[key] = {"rendered": value.render()}
    if extra:
        result["extra_localizations"] = extra
    return result


def _structural_to_dict(difference: StructuralDifference) -> Dict:
    return {
        "kind": difference.kind.value,
        "component": difference.component,
        "attribute": difference.attribute,
        "value": {"router1": difference.value1, "router2": difference.value2},
        "text": {
            "router1": _span_to_dict(difference.source1),
            "router2": _span_to_dict(difference.source2),
        },
    }


def report_to_dict(report: CampionReport) -> Dict:
    """The report as JSON-compatible nested dictionaries."""
    return {
        "schema_version": SCHEMA_VERSION,
        "router1": report.router1,
        "router2": report.router2,
        "equivalent": report.is_equivalent(),
        "degraded": report.is_degraded(),
        "total_differences": report.total_differences(),
        "aborted": [
            {
                "kind": a.kind.value,
                "component": a.component,
                "reason": a.reason,
                "resource": a.resource,
            }
            for a in report.aborted
        ],
        "parse_diagnostics": {
            hostname: [d.to_dict() for d in diagnostics]
            for hostname, diagnostics in sorted(report.parse_diagnostics.items())
        },
        "semantic": [_semantic_to_dict(d) for d in report.semantic],
        "structural": [_structural_to_dict(d) for d in report.structural],
        "unmatched": [
            {
                "kind": u.kind.value,
                "name": u.name,
                "present_on": u.present_on,
                "missing_on": u.missing_on,
                "context": u.context,
            }
            for u in report.unmatched
        ],
    }


def fleet_report_to_dict(report) -> Dict:
    """A :class:`~repro.core.fleet.FleetReport` as JSON-compatible dicts.

    Deliberately timing-free and deterministically ordered (matrix and
    failure entries sorted by hostname pair, notes sorted and deduped
    at the report level), so two runs over the same fleet — cold or
    cache-warm, serial or parallel, symmetry-compressed or not —
    serialize byte-identically.  CI's test job diffs exactly this
    output.  Schema v4 adds ``partial`` (the
    machine-readable degradation flag), ``notes``, and per-device
    ``coverage``; symmetry-compression statistics stay out, like
    timings, precisely to preserve the byte-identity guarantee.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "reference": report.reference,
        "hostnames": list(report.hostnames),
        "partial": report.is_partial(),
        "notes": list(report.notes),
        "matrix": [
            [first, second, count]
            for (first, second), count in sorted(report.matrix.items())
        ],
        "failed_pairs": [
            [first, second, cause]
            for (first, second), cause in sorted(report.failed_pairs.items())
        ],
        "failed_reports": dict(sorted(report.failed_reports.items())),
        "outliers": report.outliers,
        "conforming": report.conforming,
        "coverage": {
            hostname: coverage.to_dict()
            for hostname, coverage in sorted(report.coverage.items())
        },
        "reports": {
            hostname: report_to_dict(pair_report)
            for hostname, pair_report in sorted(report.reports.items())
        },
    }


def report_to_json(report: CampionReport, indent: int = 2) -> str:
    """The report as a JSON string."""
    import json

    return json.dumps(report_to_dict(report), indent=indent, sort_keys=False)
