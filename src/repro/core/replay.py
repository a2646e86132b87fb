"""Replay of localization-bearing memo entries (full-report warm path).

Fingerprint-keyed memo entries (:mod:`repro.core.memo`) historically
replayed only *counts*: the serialized differences carry text spans with
file/line provenance, so handing a previous pair's entry to a new pair
would report the wrong lines.  This module closes that gap so collect
mode can replay too — which is what makes a warm full-report fleet run
as cheap as a count run.

Soundness (the near-symmetry replay theorem, specialized):

* The memo key already guarantees *content* equality — equal
  fingerprints mean SemanticDiff received identical canonical
  components, and SemanticDiff/HeaderLocalize are deterministic, so the
  differences and their localizations are identical.
* The only entry material that is **not** covered by the fingerprint is
  source provenance: line numbers and raw text of every span, plus the
  pair's context/name labels that SemanticDiff threads into each
  difference.  :func:`provenance_digest` hashes exactly that residue
  — *filename-free*, in deterministic span-walk order.  When
  the stored provenance equals the current pair's, every serialized
  field except span filenames is byte-identical to what a live run
  would produce.
* Filenames are the one per-device field, so replay rewrites them to
  the current devices' filenames — after which the differences
  serialize byte-identically to a live recomputation.

One primitive does that rewrite, :func:`rewrite_fragment`: a fresh copy
of a serialized value with span filenames set and, optionally, every
literal rewritten through a substitution.  A replayed difference uses
it with no substitution; the oracle uses it with a device-to-device
literal map to prove near-symmetry replay at report level.

A replayed difference stays in its stored form
(:class:`ReplayedDifference`): serialization copies the stored
fragment with the pair's filenames, coverage reads its span lines, and
only a reader of :class:`SemanticDifference` fields (the text report)
rebuilds one.  The rebuilt difference is a facade: ``input_set`` is
``None`` (nothing downstream of Present consumes the BDD — only the
oracle harness does, and it never replays) and actions/extra
localizations are lightweight objects that reproduce the rendered
forms.  Flags that rendering needs but serialization omits
(``is_default``, a community localization's ``universal``) travel in
the entry's ``replay`` augmentation block.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..model.types import EquivalenceClass, SourceSpan
from .header_localize import FlatTerm, Localization
from .results import ComponentKind, SemanticDifference

__all__ = [
    "ReplayedDifference",
    "provenance_digest",
    "replay_augmentation",
    "replay_semantic_differences",
    "rewrite_fragment",
    "semantic_difference_from_dict",
]


def provenance_digest(
    spans1: Sequence[SourceSpan],
    spans2: Sequence[SourceSpan],
    context: str,
    name1: str,
    name2: str,
) -> str:
    """Digest of the pair material *not* covered by the fingerprints.

    Fingerprints hash the span-free canonical form, so two components
    can share a fingerprint while sitting at different lines of their
    files.  This digest covers the residue a serialized difference
    exposes: every reachable source span's line range and raw text, in
    walk order (:func:`~repro.model.spans.walk_spans`), plus the context
    and policy-name labels SemanticDiff threads into each difference.
    Filenames are deliberately excluded — they are rewritten per-device
    at replay time.  ConfigDiff passes the spans the parser sealed on
    each device (:attr:`~repro.model.device.DeviceConfig.reachable_spans`),
    so a replay never walks the model.
    """
    material = {
        "context": context,
        "names": [name1, name2],
        "spans": [
            [[span.start_line, span.end_line, list(span.text)] for span in spans]
            for spans in (spans1, spans2)
        ],
    }
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _ReplayedAction:
    """Action facade that reproduces the stored Action-row description."""

    __slots__ = ("_description",)

    def __init__(self, description: str) -> None:
        self._description = description

    def describe(self) -> str:
        return self._description

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"_ReplayedAction({self._description!r})"


@dataclass(frozen=True)
class _ReplayedRendering:
    """A self-rendering extra localization rebuilt from its rendered form
    (e.g. a community localization; ``universal`` restores the rendering
    gate :func:`~repro.core.present.render_semantic_difference` checks)."""

    rendered: str
    universal: bool = False

    def render(self) -> str:
        return self.rendered


def _span_from_dict(data: Optional[Dict], filename: str) -> SourceSpan:
    if data is None:
        return SourceSpan()
    return SourceSpan(
        filename=filename,
        start_line=data["start_line"],
        end_line=data["end_line"],
        text=tuple(data["text"]),
    )


def _localization_from_dict(data: Optional[Dict]) -> Optional[Localization]:
    if data is None:
        return None
    # str-element flat terms: str() is the identity on them, so the
    # rebuilt localization serializes exactly as the original did (the
    # included/excluded properties re-derive from the terms).
    return Localization(
        terms=tuple(
            FlatTerm(range=term["range"], minus=tuple(term["minus"]))
            for term in data["terms"]
        )
    )


def _class_from_dict(
    data: Dict, side: str, filename: str, is_default: bool
) -> EquivalenceClass:
    return EquivalenceClass(
        predicate=None,  # nothing downstream of Present reads it
        action=_ReplayedAction(data["action"][side]),
        policy_name=data["policy"][side],
        step_name=data["step"][side],
        source=_span_from_dict(data["text"][side], filename),
        is_default=is_default,
    )


def semantic_difference_from_dict(
    data: Dict,
    augment: Dict,
    file1: str,
    file2: str,
    router1: str,
    router2: str,
) -> SemanticDifference:
    """Rebuild one serialized difference against the current pair.

    Round-trip invariant (tested):
    ``semantic_difference_to_dict(semantic_difference_from_dict(d, ...))``
    equals ``d`` with span ``file`` fields rewritten to ``file1`` /
    ``file2`` — everything else in the serialized form is covered by
    the fingerprint + provenance match that gates replay.
    """
    defaults = augment.get("is_default", [False, False])
    extras_augment = augment.get("extras", {})
    extra_localizations: Dict[str, object] = {}
    for key, value in data.get("extra_localizations", {}).items():
        if value is None:
            extra_localizations[key] = None
        elif "rendered" in value:
            extra_localizations[key] = _ReplayedRendering(
                rendered=value["rendered"],
                universal=extras_augment.get(key, {}).get("universal", False),
            )
        else:
            extra_localizations[key] = _localization_from_dict(value)
    return SemanticDifference(
        kind=ComponentKind(data["kind"]),
        input_set=None,
        class1=_class_from_dict(data, "router1", file1, defaults[0]),
        class2=_class_from_dict(data, "router2", file2, defaults[1]),
        router1=router1,
        router2=router2,
        context=data["context"],
        localization=_localization_from_dict(data["localization"]),
        extra_localizations=extra_localizations,
        example=dict(data["example"]),
    )


def replay_augmentation(differences: Iterable[SemanticDifference]) -> Dict:
    """The ``replay`` block stored alongside a localized memo entry.

    Carries exactly the flags rendering needs but serialization omits:
    each side's ``is_default`` (the Text row's implicit-default wording)
    and the ``universal`` flag of self-rendering extra localizations.
    """
    semantic = []
    for difference in differences:
        extras = {}
        for key, value in difference.extra_localizations.items():
            if value is None or isinstance(value, Localization):
                continue
            extras[key] = {"universal": bool(getattr(value, "universal", False))}
        semantic.append(
            {
                "is_default": [
                    difference.class1.is_default,
                    difference.class2.is_default,
                ],
                "extras": extras,
            }
        )
    return {"semantic": semantic}


def _literal_rewriter(literals: Dict[str, str]):
    """A ``str -> str`` function rewriting every token in ``literals``.

    One longest-first alternation pass: boundary guards keep
    ``10.0.0.1`` from matching inside ``10.0.0.10`` and a hostname from
    matching inside its filename, and a swapping map (``a -> b,
    b -> a``) is safe because each occurrence is consumed once.
    """
    keys = sorted(
        (key for key, value in literals.items() if key != value),
        key=len,
        reverse=True,
    )
    if not keys:
        return _unchanged
    pattern = re.compile(
        "|".join(f"(?<![\\w.]){re.escape(key)}(?![\\w.])" for key in keys)
    )

    def rewrite(text: str) -> str:
        return pattern.sub(lambda match: literals[match.group(0)], text)

    return rewrite


def _unchanged(text: str) -> str:
    return text


def _copy_rewriting(value: object, rewrite) -> object:
    """A fresh copy of JSON-compatible ``value`` with every string, dict
    keys included, passed through ``rewrite``; tuples become lists."""
    kind = type(value)
    if kind is dict:
        return {
            rewrite(key) if type(key) is str else key: _copy_rewriting(item, rewrite)
            for key, item in value.items()
        }
    if kind is list or kind is tuple:
        return [_copy_rewriting(item, rewrite) for item in value]
    if kind is str:
        return rewrite(value)
    return value


def rewrite_fragment(
    value: object,
    files: Optional[Tuple[str, str]] = None,
    literals: Optional[Dict[str, str]] = None,
) -> object:
    """A serialized report value, carried over to another device pair.

    Returns a fresh copy (nothing in it is shared mutable with
    ``value``).  ``literals`` maps literal tokens of the source pair to
    the target pair's — addresses, hostnames, filenames — and rewrites
    every string and dict key through them (:func:`_literal_rewriter`).
    ``files`` is a difference fragment's ``(file1, file2)``: the span
    ``file`` under ``text`` of each side is set to it.  A memo replay
    passes only ``files``; the oracle's report-level replay check passes
    a whole serialized report and its literal map.
    """
    rewrite = _literal_rewriter(literals) if literals else _unchanged
    copied = _copy_rewriting(value, rewrite)
    if files is not None:
        text = copied.get("text")
        if type(text) is dict:
            for side, filename in zip(("router1", "router2"), files):
                span = text.get(side)
                if type(span) is dict:
                    span["file"] = filename
    return copied


class ReplayedDifference:
    """A localized memo hit replayed for the current pair, still stored.

    Holds the stored fragment (owned by the memo: read here, never
    mutated or handed out), its augmentation, and the pair's files and
    hostnames.  It stands in for the :class:`SemanticDifference` it
    replays: serialization copies the fragment with this pair's
    filenames (:func:`rewrite_fragment`), coverage reads its span lines
    (:meth:`source_lines`), and any other attribute is read off the
    difference :meth:`materialize` rebuilds on first use.
    """

    __slots__ = (
        "fragment", "augment", "file1", "file2", "router1", "router2", "_live",
    )

    def __init__(
        self,
        fragment: Dict,
        augment: Dict,
        file1: str,
        file2: str,
        router1: str,
        router2: str,
    ) -> None:
        self.fragment = fragment
        self.augment = augment
        self.file1 = file1
        self.file2 = file2
        self.router1 = router1
        self.router2 = router2
        self._live: Optional[SemanticDifference] = None

    @property
    def kind(self) -> ComponentKind:
        """The component kind, read off the fragment (no rebuild)."""
        return ComponentKind(self.fragment["kind"])

    def materialize(self) -> SemanticDifference:
        """The replayed :class:`SemanticDifference`, rebuilt once."""
        if self._live is None:
            self._live = semantic_difference_from_dict(
                self.fragment,
                self.augment,
                self.file1,
                self.file2,
                self.router1,
                self.router2,
            )
        return self._live

    def __getattr__(self, name: str):
        # Only reached for names the slots and the class lack; private
        # and protocol names (copy, pickle) must not rebuild anything.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.materialize(), name)

    def source_lines(self) -> Tuple[Optional[Tuple[str, int, int]], ...]:
        """Each side's span as ``(file, start_line, end_line)``, or
        ``None`` where the difference has no text on that side."""
        text = self.fragment["text"]
        lines = []
        for side, filename in (("router1", self.file1), ("router2", self.file2)):
            span = text[side]
            lines.append(
                None
                if span is None
                else (filename, span["start_line"], span["end_line"])
            )
        return tuple(lines)


def replay_semantic_differences(
    entry: Dict, device1: object, device2: object
) -> List[ReplayedDifference]:
    """A localized memo entry's differences, replayed for the current pair."""
    augments = entry.get("replay", {}).get("semantic", [])
    return [
        ReplayedDifference(
            data,
            augments[index] if index < len(augments) else {},
            device1.filename,
            device2.filename,
            device1.hostname,
            device2.hostname,
        )
        for index, data in enumerate(entry["semantic"])
    ]
