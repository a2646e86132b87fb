"""Configuration parsers (Batfish substitute): Cisco IOS and Juniper JunOS."""

from .cisco import parse_cisco
from .common import (
    NumberedLine,
    ParseContext,
    ParserWarning,
    StanzaMemo,
    number_lines,
)
from .juniper import JunosStatement, parse_juniper
from .loader import detect_dialect, load_config, parse_config

__all__ = [
    "JunosStatement",
    "NumberedLine",
    "ParseContext",
    "ParserWarning",
    "StanzaMemo",
    "detect_dialect",
    "load_config",
    "number_lines",
    "parse_cisco",
    "parse_config",
    "parse_juniper",
]
