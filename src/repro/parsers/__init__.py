"""Configuration parsers (Batfish substitute): Cisco IOS and Juniper JunOS.

Names are re-exported lazily, so loading a cached device imports
neither vendor parser.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "cisco": ("parse_cisco",),
        "common": (
            "NumberedLine",
            "ParseContext",
            "ParserWarning",
            "StanzaMemo",
            "number_lines",
        ),
        "juniper": ("JunosStatement", "parse_juniper"),
        "loader": ("detect_dialect", "load_config", "parse_config"),
    },
)
