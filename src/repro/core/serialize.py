"""JSON serialization of Campion reports.

``campion compare --json`` and CI integrations need machine-readable
output; this module renders a :class:`~repro.core.results.CampionReport`
as plain JSON-compatible dictionaries.  The schema mirrors the report
tables: each semantic difference carries its included/excluded ranges,
action pair, text localization (with file/line provenance), and any
examples; structural differences carry component/attribute/values.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable, Dict, List, Optional, TextIO

from .. import perf
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
    "dumps",
    "write_json",
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
    with perf.timer("serialize.dict"):
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


def report_to_json(report: CampionReport) -> str:
    """The report as ``json.dumps(report_to_dict(report), indent=2)``."""
    with perf.timer("serialize.dict"):
        data = report_to_dict(report)
    with perf.timer("serialize.encode"):
        return dumps(data)


def write_json(value: object, stream: TextIO) -> None:
    """Write ``json.dumps(value, indent=2)`` and a newline to ``stream``,
    one top-level member (or, one level down, one dict item — a fleet's
    device report) at a time."""
    with perf.timer("serialize.encode"):
        _render(value, stream.write)
        stream.write("\n")


def dumps(value: object) -> str:
    """Exactly ``json.dumps(value, indent=2)``."""
    chunks: List[str] = []
    _render(value, chunks.append)
    return "".join(chunks)


def _render(value: object, write: Callable[[str], object]) -> None:
    if c_make_encoder is None:  # no C accelerator: the stdlib is as fast
        write(json.dumps(value, indent=2))
        return
    writer = _Indent2Writer(write)
    try:
        writer.write(value)
    finally:
        perf.add("serialize.fragments", writer.fragments)
        perf.add("serialize.fragment_renders", writer.renders)


# -- the indent=2 writer ------------------------------------------------------
#
# ``json.dumps(indent=2)`` runs CPython's pure-Python encoder; only the
# compact form gets the C encoder.  The writer below reaches the same
# bytes with C-encoded pieces (see DESIGN.md §5, "Why the fragment-cached
# writer is byte-exact"):
#
# * A container whose members are all plain scalars is one C encode
#   whose item separator already carries its members' newline and
#   indent; only the brackets' own line breaks are added around it.
# * A list of such lists (a fleet matrix) is one C encode too, its row
#   boundaries found by one ``str.replace``.
# * Each element of a report's ``semantic``/``structural`` list is a
#   fragment.  Its indented text at a depth is a function of its compact
#   encoding, so it is rendered once per (depth, compact encoding) and
#   reused.  The span ``file`` values — the only per-device field of a
#   replayed difference — are held out of the key as holes and spliced
#   back per element.

#: Members of these lists are cached fragments.
_FRAGMENT_LISTS = frozenset(("semantic", "structural"))
#: Exact types the C encoder renders as a single token.
_SCALARS = frozenset((str, int, float, bool, type(None)))
_ARRAYS = frozenset((list, tuple))
#: Stands in for a held-out span filename while a template renders.
_HOLE = "\x00campion:file\x00"
_HOLE_TOKEN = encode_basestring_ascii(_HOLE)


def _default(value: object) -> object:
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _c_encoder(item_separator: str, key_separator: str = ": "):
    return c_make_encoder(
        None, _default, encode_basestring_ascii, None, key_separator,
        item_separator, False, False, True,
    )


class _Pads(dict):
    """depth -> a newline and that depth's indent."""

    def __missing__(self, depth: int) -> str:
        pad = self[depth] = "\n" + "  " * depth
        return pad


class _FlatEncoders(dict):
    """depth -> C encoder of a scalar-only container at that depth: its
    item separator already carries the members' newline and indent."""

    def __missing__(self, depth: int):
        encoder = self[depth] = _c_encoder(",\n" + "  " * (depth + 1))
        return encoder


def _hold_out_files(element: object):
    """``element`` with each string span ``file`` under ``text`` replaced by
    :data:`_HOLE`, and the replaced filenames in output order."""
    if type(element) is not dict:
        return element, ()
    text = element.get("text")
    if type(text) is not dict:
        return element, ()
    files = []
    held = {}
    for side, span in text.items():
        if type(span) is dict and type(span.get("file")) is str:
            files.append(span["file"])
            span = {**span, "file": _HOLE}
        held[side] = span
    if not files:
        return element, ()
    return {**element, "text": held}, files


class _Indent2Writer:
    """One run's renderer and fragment cache (never shared across runs).

    Text is collected in an ``out`` list and handed to ``write`` after
    each member of a dict at depth 0 or 1: a top-level member, or one
    device report of a fleet.  Fragments sit at depth 2 or deeper, so a
    template's own list is never flushed."""

    def __init__(self, write: Callable[[str], object]) -> None:
        self._write = write
        self._compact = _c_encoder(",", ":")
        self._pads = _Pads()
        self._flat = _FlatEncoders()
        #: (depth, held-out filename count, compact encoding with holes)
        #: -> indented text split at the holes
        self._templates: Dict[tuple, List[str]] = {}
        self.fragments = 0
        self.renders = 0

    def write(self, value: object) -> None:
        out: List[str] = []
        self._value(value, 0, out)
        self._flush(out)

    def _flush(self, out: List[str]) -> None:
        if out:
            self._write("".join(out))
            out.clear()

    def _key(self, key: object) -> str:
        if type(key) is str:
            return encode_basestring_ascii(key)
        # The C encoder converts the key as the stdlib does: '{"1":null}'.
        return "".join(self._compact({key: None}, 0))[1:-len(":null}")]

    def _value(self, value: object, depth: int, out: List[str]) -> None:
        if type(value) is str:
            out.append(encode_basestring_ascii(value))
        elif isinstance(value, dict):
            if not value:
                out.append("{}")
            elif _SCALARS.issuperset(map(type, value.values())):
                out.append(self._flat_text(value, depth))
            else:
                pads = self._pads
                inner = pads[depth + 1]
                opener = "{" + inner
                for key, item in value.items():
                    out.append(opener + self._key(key) + ": ")
                    opener = "," + inner
                    if type(item) is list and item and key in _FRAGMENT_LISTS:
                        self._array(item, depth + 1, out, self._fragment)
                    else:
                        self._value(item, depth + 1, out)
                    if depth < 2:
                        self._flush(out)
                out.append(pads[depth] + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                out.append("[]")
            elif _SCALARS.issuperset(map(type, value)):
                out.append(self._flat_text(value, depth))
            elif all(
                type(row) in _ARRAYS and row and _SCALARS.issuperset(map(type, row))
                for row in value
            ):
                out.append(self._rows(value, depth))
            else:
                self._array(value, depth, out, self._value)
        else:
            out.append("".join(self._compact(value, 0)))

    def _array(self, items, depth: int, out: List[str], render) -> None:
        """A non-empty array, each member written by ``render``."""
        inner = self._pads[depth + 1]
        opener = "[" + inner
        for item in items:
            out.append(opener)
            opener = "," + inner
            render(item, depth + 1, out)
        out.append(self._pads[depth] + "]")

    def _flat_text(self, value, depth: int) -> str:
        """A non-empty container of scalars, in one C encode."""
        text = "".join(self._flat[depth](value, 0))
        pads = self._pads
        return text[0] + pads[depth + 1] + text[1:-1] + pads[depth] + text[-1]

    def _rows(self, value, depth: int) -> str:
        """A non-empty list of non-empty scalar-only lists (a fleet
        matrix), in one C encode.

        The rows' items are at ``depth + 2``, and that depth's flat item
        separator goes between rows too.  A row's ``]`` followed by the
        separator and the next row's ``[`` is then a row boundary: a
        scalar token neither ends in ``]`` nor starts with ``[``, and a
        string token holds no raw newline."""
        text = "".join(self._flat[depth + 1](value, 0))
        pads = self._pads
        row, item = pads[depth + 1], pads[depth + 2]
        body = text[2:-2].replace("]," + item + "[", row + "]," + row + "[" + item)
        return "[" + row + "[" + item + body + row + "]" + pads[depth] + "]"

    def _fragment(self, element: object, depth: int, out: List[str]) -> None:
        self.fragments += 1
        held, files = _hold_out_files(element)
        # The count is in the key: an element whose ``file`` is not an
        # exact ``str`` but equals the hole has the same compact encoding
        # as a held-out one, and must not reuse its split.
        key = (depth, len(files), "".join(self._compact(held, 0)))
        pieces = self._templates.get(key)
        if pieces is None:
            self.renders += 1
            rendered: List[str] = []
            self._value(held, depth, rendered)
            pieces = "".join(rendered).split(_HOLE_TOKEN)
            if len(pieces) != len(files) + 1:
                # Some other string encodes to the hole's token.
                self._value(element, depth, out)
                return
            self._templates[key] = pieces
        out.append(pieces[0])
        for filename, piece in zip(files, pieces[1:]):
            out.append(encode_basestring_ascii(filename))
            out.append(piece)
