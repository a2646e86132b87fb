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
  the current devices' filenames (the same substitution
  :func:`~repro.core.near_symmetry.replay_report_dict` performs at
  whole-report scale) — after which the rebuilt differences serialize
  byte-identically to a live recomputation.

Replayed differences are facades: ``input_set`` is ``None`` (nothing
downstream of Present consumes the BDD — only the oracle harness does,
and it never replays) and actions/extra localizations are lightweight
objects that reproduce the rendered forms.  Flags that rendering needs
but serialization omits (``is_default``, a community localization's
``universal``) travel in the entry's ``replay`` augmentation block.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..model.types import EquivalenceClass, SourceSpan
from .header_localize import FlatTerm, Localization
from .results import ComponentKind, SemanticDifference

__all__ = [
    "provenance_digest",
    "replay_augmentation",
    "replay_semantic_differences",
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


def replay_semantic_differences(
    entry: Dict, device1: object, device2: object
) -> List[SemanticDifference]:
    """Rebuild a localized memo entry's differences for the current pair."""
    augments = entry.get("replay", {}).get("semantic", [])
    rebuilt = []
    for index, data in enumerate(entry["semantic"]):
        augment = augments[index] if index < len(augments) else {}
        rebuilt.append(
            semantic_difference_from_dict(
                data,
                augment,
                file1=device1.filename,
                file2=device2.filename,
                router1=device1.hostname,
                router2=device2.hostname,
            )
        )
    return rebuilt
