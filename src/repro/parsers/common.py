"""Shared parser utilities: numbered-line handling, token helpers and
the run-scoped ACL stanza memo."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .. import perf
from ..diagnostics import Diagnostic, DiagnosticSink, Severity
from ..model.acl import Acl, AclLine
from ..model.fingerprint import acl_fingerprint
from ..model.types import ConfigError, SourceSpan

__all__ = [
    "NumberedLine",
    "number_lines",
    "ParserWarning",
    "ParseContext",
    "StanzaMemo",
]


@dataclass(frozen=True)
class NumberedLine:
    """One raw configuration line with its 1-based line number."""

    number: int
    text: str

    @property
    def stripped(self) -> str:
        """The line without surrounding whitespace."""
        return self.text.strip()

    @property
    def indent(self) -> int:
        """Leading-whitespace width (IOS block structure)."""
        return len(self.text) - len(self.text.lstrip())

    def tokens(self) -> List[str]:
        """Whitespace-separated tokens of the line."""
        return self.stripped.split()

    def span(self, filename: str) -> SourceSpan:
        """A single-line SourceSpan for this line."""
        return SourceSpan(filename, self.number, self.number, (self.text.rstrip(),))


def number_lines(text: str) -> List[NumberedLine]:
    """Split raw text into numbered lines, keeping blanks for numbering."""
    return [
        NumberedLine(number, line)
        for number, line in enumerate(text.splitlines(), start=1)
    ]


@dataclass(frozen=True)
class ParserWarning:
    """A non-fatal parse issue: unsupported or malformed construct.

    Campion-style tools must not die on the long tail of vendor syntax;
    we record what was skipped so callers can audit coverage (the paper's
    §5.1 "not fully supported format" case degraded output the same way).
    """

    line: int
    text: str
    reason: str


class ParseContext:
    """Accumulates warnings/diagnostics and error helpers during a parse.

    ``strict`` selects the failure policy for *unparseable* stanzas (the
    ones a parser routes through :meth:`error`): strict raises
    :class:`ConfigError` at the first one, lenient records a
    :class:`~repro.diagnostics.Diagnostic` and lets the parser skip the
    stanza.  Ignored-by-design constructs always go through
    :meth:`warn`, which never fails in either mode.
    """

    def __init__(self, filename: str, strict: bool = False):
        self.filename = filename
        self.strict = strict
        self.warnings: List[ParserWarning] = []
        self.sink = DiagnosticSink(strict=strict, filename=filename)

    @property
    def diagnostics(self) -> List[Diagnostic]:
        """All structured records collected so far."""
        return self.sink.diagnostics

    def mark(self) -> Tuple[int, int]:
        """How many warnings and diagnostics are recorded so far.

        A stanza parsed between two equal marks recorded nothing, which
        is what :class:`StanzaMemo` requires before storing it.
        """
        return len(self.warnings), len(self.sink.diagnostics)

    def warn(self, line: NumberedLine, reason: str) -> None:
        """Record a non-fatal parse issue (unsupported-by-design)."""
        self.warnings.append(ParserWarning(line.number, line.stripped, reason))
        self.sink.warning(reason, span=line.span(self.filename))

    def error(self, line: NumberedLine, reason: str) -> None:
        """Record an unparseable stanza — raises in strict mode."""
        self.sink.error(reason, span=line.span(self.filename))
        self.warnings.append(ParserWarning(line.number, line.stripped, reason))

    def error_span(self, span: SourceSpan, reason: str) -> None:
        """Record an unparseable region — raises in strict mode."""
        self.sink.error(reason, span=span)
        self.warnings.append(ParserWarning(span.start_line, span.render(), reason))

    def fail(self, line: NumberedLine, reason: str) -> ConfigError:
        """Build a ConfigError pointing at ``line``."""
        return ConfigError(
            f"{self.filename}:{line.number}: {reason}: {line.stripped!r}"
        )


@dataclass(frozen=True)
class StanzaEntry:
    """One memoized ACL stanza: its parsed lines and its ACL's digest.

    ``start_line`` is where the stanza began in the parse that stored
    it; :meth:`rebased` moves the lines' spans from there.
    """

    start_line: int
    lines: Tuple[AclLine, ...]
    digest: str

    def rebased(
        self, filename: str, start_line: int, raw_lines: Sequence[str]
    ) -> Tuple[AclLine, ...]:
        """The stored lines with their spans moved to ``filename`` and
        ``start_line``; span-free leaves (addresses, ports) are shared.

        Span text is re-read from ``raw_lines``, the new device's own
        lines, as a live parse reads it: equal by construction of the
        key, and sharing the device's strings keeps its pickle as small
        as a live parse's.
        """
        shift = start_line - self.start_line
        rebased = []
        for line in self.lines:
            span = line.source
            start, end = span.start_line + shift, span.end_line + shift
            text = tuple(raw_lines[n - 1].rstrip() for n in range(start, end + 1))
            source = _replaced(
                span, filename=filename, start_line=start, end_line=end, text=text
            )
            rebased.append(_replaced(line, source=source))
        return tuple(rebased)


def _replaced(value, **changes):
    """A copy of the frozen dataclass ``value`` with ``changes``.

    Skips ``__init__``: every field was validated when ``value`` was
    built, and the changes only move provenance.  This is several times
    faster than :func:`dataclasses.replace`, which matters at tens of
    thousands of memoized ACL lines per run.
    """
    clone = object.__new__(type(value))
    clone.__dict__.update(value.__dict__, **changes)
    return clone


class StanzaMemo:
    """Parsed ACL stanzas of one run, so each distinct one is parsed once.

    The unit is one ACL stanza: a Cisco ``ip access-list extended``
    block or a JunOS firewall ``filter``.  The key is the dialect and
    the stanza's line texts; the entry holds the parsed
    lines and the ACL's fingerprint, so a hit neither parses nor
    fingerprints the stanza again.  A stanza whose parse raised, warned
    or recorded a diagnostic is never stored, so diagnostics always
    come from a live parse.

    A memo lives for one CLI command or one service job; there is no
    process-wide table.  Parsers called without one use a private memo.
    """

    def __init__(self) -> None:
        self._entries: Dict[tuple, StanzaEntry] = {}

    def lookup(self, key: tuple) -> Optional[StanzaEntry]:
        """The entry stored under ``key``, counting the hit or miss."""
        entry = self._entries.get(key)
        perf.add(
            "parse.stanza_memo.hits"
            if entry is not None
            else "parse.stanza_memo.misses"
        )
        return entry

    def store(
        self, key: tuple, start_line: int, lines: Tuple[AclLine, ...], acl: Acl
    ) -> StanzaEntry:
        """Remember a cleanly parsed stanza whose lines alone form ``acl``."""
        with perf.timer("parse.fingerprint"):
            entry = StanzaEntry(start_line, lines, acl_fingerprint(acl))
        self._entries[key] = entry
        return entry
