"""The source spans reachable from each policy of a device.

Coverage (:mod:`repro.core.coverage`) reads a policy's footprint as the
lines of every span reachable from it, and localization replay
(:mod:`repro.core.replay`) hashes the same spans to decide whether a
stored localization still points at the right lines.  Both read the
table :func:`reachable_span_table` builds, which parsers seal onto the
device (:meth:`~repro.model.device.DeviceConfig.seal`) so that a cached
device carries it instead of having the model walked on every run.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import TYPE_CHECKING, Dict, List, Tuple

from .types import SourceSpan

if TYPE_CHECKING:  # pragma: no cover - device imports this module lazily
    from .device import DeviceConfig

__all__ = ["reachable_span_table", "walk_spans"]

#: Marks SourceSpan types in ``_CHILDREN``.
_SPAN = object()

#: type -> how the span walk reaches an instance's children: ``_SPAN``,
#: a function returning the children in visit order, or ``None`` for
#: types with nothing to descend into (str, int, enums, ...).
_CHILDREN: Dict[type, object] = {}


def _children_of(cls: type) -> object:
    """The ``_CHILDREN`` entry for ``cls``, computed once per type."""
    if issubclass(cls, SourceSpan):
        return _SPAN
    if dataclasses.is_dataclass(cls):
        names = tuple(field.name for field in dataclasses.fields(cls))
        if len(names) == 1:
            getter = operator.attrgetter(names[0])
            return lambda value: (getter(value),)
        return operator.attrgetter(*names) if names else None
    if issubclass(cls, dict):
        return operator.methodcaller("values")
    if issubclass(cls, (list, tuple, set, frozenset)):
        return iter
    return None


def _collect_spans(children, value: object, spans: List[SourceSpan]) -> None:
    for item in children(value):
        try:
            step = _CHILDREN[type(item)]
        except KeyError:
            step = _CHILDREN[type(item)] = _children_of(type(item))
        if step is None:
            continue
        if step is _SPAN:
            if not item.is_empty():
                spans.append(item)
        else:
            _collect_spans(step, item, spans)


def walk_spans(value: object) -> List[SourceSpan]:
    """Every non-empty SourceSpan reachable from a model object.

    Depth-first: dataclass fields in declaration order, dict values and
    list/tuple/set items in iteration order.  The order is persisted:
    :func:`~repro.core.replay.provenance_digest` hashes the spans
    in it, so reordering the walk orphans every cached localized entry.
    """
    spans: List[SourceSpan] = []
    _collect_spans(iter, (value,), spans)
    return spans


def reachable_span_table(
    device: "DeviceConfig",
) -> Dict[Tuple[str, str], Tuple[SourceSpan, ...]]:
    """``(kind, name) -> spans`` for every ACL and route map of a device.

    ACLs first, then route maps, each sorted by name.  The values hold
    the device's own span objects, so the table adds no spans to the
    device's memory or to its pickle.
    """
    return {
        (kind, name): tuple(walk_spans(policies[name]))
        for kind, policies in (("acl", device.acls), ("route-map", device.route_maps))
        for name in sorted(policies)
    }
