"""Dialect detection and convenience loading."""

from __future__ import annotations

import pathlib
from typing import Optional, Union

from ..model.device import DeviceConfig
from ..model.types import ConfigError
from .cisco import parse_cisco
from .common import StanzaMemo
from .juniper import parse_juniper

__all__ = ["detect_dialect", "parse_config", "load_config"]

# Tokens that only appear in one dialect; scoring by hits is robust to
# short snippets (the Figure 1 excerpts detect correctly).
_CISCO_MARKERS = (
    "ip route ",
    "ip prefix-list",
    "route-map ",
    "access-list",
    "router bgp",
    "router ospf",
    "ip community-list",
)
_JUNIPER_MARKERS = (
    "policy-statement",
    "routing-options",
    "policy-options",
    "host-name",
    "prefix-list ",
    "firewall",
    "then {",
    "term ",
)


def detect_dialect(text: str, filename: str = "<config>") -> str:
    """Guess ``"cisco"`` or ``"juniper"`` from configuration text.

    An empty (or whitespace-only) configuration gets its own spanful
    error naming the file — "cannot detect dialect" on an empty file
    sends an operator hunting for markers that are not there.
    """
    if not text.strip():
        raise ConfigError(f"empty configuration: {filename}")
    if "{" in text and "}" in text:
        return "juniper"
    cisco_score = sum(text.count(marker) for marker in _CISCO_MARKERS)
    juniper_score = sum(text.count(marker) for marker in _JUNIPER_MARKERS)
    if cisco_score == 0 and juniper_score == 0:
        raise ConfigError(f"cannot detect configuration dialect: {filename}")
    return "cisco" if cisco_score >= juniper_score else "juniper"


def parse_config(
    text: str,
    filename: str = "<config>",
    dialect: str = "auto",
    strict: bool = False,
    memo: Optional[StanzaMemo] = None,
) -> DeviceConfig:
    """Parse text in the given (or detected) dialect.

    ``arista`` is accepted as an alias for the Cisco parser: EOS syntax
    is IOS-compatible across the feature subset Campion models, which is
    how the paper's tool covers "any vendor format Batfish supports"
    beyond its two unparsed dialects (§4).  The device is tagged with
    its real vendor so reports stay honest.

    ``strict`` selects fail-fast parsing; the default lenient mode
    records unparseable stanzas on ``DeviceConfig.diagnostics`` and
    skips them (see :mod:`repro.diagnostics`).

    ``memo`` is the run's :class:`~repro.parsers.common.StanzaMemo`:
    pass one memo to every parse of a run so each distinct ACL stanza
    is parsed and fingerprinted once.  Without one the parse uses a
    private memo.
    """
    if dialect == "auto":
        dialect = detect_dialect(text, filename)
    if dialect in ("cisco", "arista"):
        device = parse_cisco(text, filename, strict=strict, memo=memo)
        if dialect == "arista":
            device.vendor = "arista"
        return device
    if dialect == "juniper":
        return parse_juniper(text, filename, strict=strict, memo=memo)
    raise ConfigError(f"unknown dialect {dialect!r}")


def load_config(
    path: Union[str, pathlib.Path], dialect: str = "auto", strict: bool = False
) -> DeviceConfig:
    """Read and parse a configuration file."""
    path = pathlib.Path(path)
    return parse_config(
        path.read_text(), filename=str(path), dialect=dialect, strict=strict
    )
