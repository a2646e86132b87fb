"""The run-scoped ACL stanza memo must never change a parse.

Every check parses the same configurations three times: through one
shared :class:`StanzaMemo` (as the CLI and the service do), with a
private memo per configuration, and live, through a memo that never
hits.  All three must agree on their pickled bytes, on the model
(``==``), on every SourceSpan in ``walk_spans`` order, on diagnostics,
and on fingerprints and templates -- which must also equal a fresh
computation that reuses no memoized digest.
"""

import pickle

import pytest

from repro import perf
from repro.model.fingerprint import compute_fingerprints, compute_template
from repro.model.spans import reachable_span_table, walk_spans
from repro.parsers import StanzaMemo, parse_config
from repro.workloads import datacenter
from repro.workloads.acl_gen import generate_acl_pair


def _counter(name):
    return perf.REGISTRY.counters.get(name, 0)


def _parse_all(configs, memo_for):
    return [
        parse_config(text, filename=filename, strict=strict, memo=memo_for())
        for filename, text, strict in configs
    ]


class _LiveMemo(StanzaMemo):
    """A memo that never hits: every stanza is parsed live."""

    def lookup(self, key):
        return None


def _assert_same(left, right):
    assert left == right, left.filename
    assert walk_spans(left) == walk_spans(right), left.filename
    assert left.diagnostics == right.diagnostics, left.filename
    assert left.fingerprints == right.fingerprints, left.filename
    assert left.fingerprints == compute_fingerprints(left), left.filename
    assert left.template == right.template == compute_template(left)
    assert left.reachable_spans == right.reachable_spans
    assert left.reachable_spans == reachable_span_table(left)


def _assert_memo_neutral(configs):
    """Shared, private and live parses agree; returns the shared hits."""
    shared = StanzaMemo()
    hits = _counter("parse.stanza_memo.hits")
    memoized = _parse_all(configs, lambda: shared)
    hits = _counter("parse.stanza_memo.hits") - hits
    private = _parse_all(configs, lambda: None)
    live = _parse_all(configs, _LiveMemo)
    for reference, left, right in zip(live, memoized, private):
        # Equal pickles also mean equal object sharing: span text must
        # come from the device's own lines, as in a live parse, or every
        # cache entry of a memoized device grows.
        expected = pickle.dumps(reference)
        assert pickle.dumps(left) == expected == pickle.dumps(right)
        _assert_same(left, reference)
        _assert_same(right, reference)
    return hits


def _texts(devices, strict=False):
    return [
        (device.filename, "\n".join(device.raw_lines) + "\n", strict)
        for device in devices
    ]


def _recorded(generator, **kwargs):
    devices, _ = generator(**kwargs)
    return _texts(devices)


class TestWorkloads:
    """The e2e benchmark's four workload generators (smaller fleets)."""

    def test_acl_pair(self):
        pair = generate_acl_pair(rule_count=300, differences=10, seed=0)
        configs = [
            ("cisco-gw.cfg", pair.cisco_text, False),
            ("juniper-gw.cfg", pair.juniper_text, False),
        ]
        assert _assert_memo_neutral(configs) == 0

    def test_gateways_distinct(self):
        configs = _recorded(
            datacenter.gateway_fleet, count=16, outliers=15, rule_count=24
        )
        _assert_memo_neutral(configs)

    def test_clos_conforming(self):
        configs = _recorded(
            datacenter.templated_clos_fleet,
            count=24,
            roles=1,
            rule_count=48,
            vendors=2,
        )
        # Every device after the first of each vendor hits every ACL.
        assert _assert_memo_neutral(configs) == 22 * 4

    def test_clos_params(self):
        configs = _recorded(
            datacenter.parameterized_clos_fleet,
            count=24,
            roles=3,
            rule_count=24,
            uplinks=2,
        )
        assert _assert_memo_neutral(configs) > 0


CISCO_WEB = """\
ip access-list extended WEB
 remark web servers
 10 permit tcp any host 10.0.0.1 eq 80
 deny ip any any
!
"""

CISCO_FLAWED = """\
ip access-list extended WARN
 permit tcp any any eq 80 bogus
!
ip access-list extended BAD
 permit tcp 300.1.1.1 0.0.0.0 any
!
"""

CISCO_CONFIGS = [
    ("c1.cfg", "hostname c1\n!\n" + CISCO_WEB),
    # shifted offset, other filename
    (
        "c2.cfg",
        "hostname c2\n!\ninterface Ethernet0\n ip address 10.1.1.1 255.255.255.0\n"
        " ip access-group WEB in\n!\n" + CISCO_WEB,
    ),
    # multi-block ACL: the second WEB block extends the first
    (
        "c3.cfg",
        "hostname c3\n!\n"
        + CISCO_WEB
        + "ip access-list extended WEB\n permit udp any any eq 53\n!\n",
    ),
    # numbered lines under the same name
    ("c4.cfg", "hostname c4\n!\n" + CISCO_WEB + "access-list WEB permit icmp any any\n"),
    # a warning (ignored option) and an error (bad address)
    ("c5.cfg", "hostname c5\n!\n" + CISCO_FLAWED + CISCO_WEB),
    ("c6.cfg", "hostname c6\n!\n!\n!\n" + CISCO_FLAWED),
    # trailing whitespace changes the key, not the parse
    ("c7.cfg", "hostname c7\n" + CISCO_WEB.replace("deny ip any any", "deny ip any any  ")),
    # an empty ACL, twice
    ("c8.cfg", "hostname c8\nip access-list extended EMPTY\n!\n" + CISCO_WEB),
    ("c9.cfg", "hostname c9\n!\nip access-list extended EMPTY\nip access-list extended EMPTY\n"),
]

JUNOS_FILTER = """\
        filter EDGE {
            term web {
                from {
                    destination-address {
                        10.0.0.1/32;
                    }
                    protocol tcp;
                    destination-port [ 80 443 ];
                }
                then accept;
            }
            term rest {
                then discard;
            }
        }
"""


def _junos(hostname, firewall_body, prefix=""):
    return (
        f"system {{\n    host-name {hostname};\n}}\n{prefix}"
        f"firewall {{\n    family inet {{\n{firewall_body}    }}\n}}\n"
    )


JUNOS_CONFIGS = [
    ("j1.conf", _junos("j1", JUNOS_FILTER)),
    # shifted, and directly under firewall instead of family inet
    (
        "j2.conf",
        "system {\n    host-name j2;\n}\nrouting-options {\n    autonomous-system 1;\n}\n"
        "firewall {\n" + JUNOS_FILTER + "}\n",
    ),
    # comments inside the extent: parsed live
    ("j3.conf", _junos("j3", JUNOS_FILTER.replace("then discard;", "then discard; # drop"))),
    ("j4.conf", _junos("j4", JUNOS_FILTER.replace("term rest {", "term rest { /* c */"))),
    # a block comment that ends on the filter's first line
    ("j5.conf", _junos("j5", "/* old\n*/" + JUNOS_FILTER.lstrip())),
    # two filters on one line, and a filter sharing its parent's line
    (
        "j6.conf",
        "firewall { family inet { filter EDGE { term t { then accept; } } "
        "filter OTHER { term u { then discard; } } } }\n"
        "firewall {\n    family inet { filter EDGE {\n        term x { then accept; }\n    }\n}\n}\n",
    ),
    # duplicate names: the second EDGE wins, memoizable or not
    (
        "j7.conf",
        _junos(
            "j7",
            JUNOS_FILTER
            + "        filter EDGE {\n            term only {\n                then discard;\n"
            "            }\n        }\n",
        ),
    ),
    (
        "j7b.conf",
        _junos(
            "j7b",
            JUNOS_FILTER
            + "        filter EDGE { # replaced\n            term only {\n"
            "                then discard;\n            }\n        }\n",
        ),
    ),
    # a warning (unsupported condition) and an error (two addresses)
    (
        "j8.conf",
        _junos(
            "j8",
            "        filter WARN {\n            term t {\n                from {\n"
            "                    packet-length 100;\n                }\n"
            "                then accept;\n            }\n        }\n" + JUNOS_FILTER,
        ),
    ),
    (
        "j9.conf",
        _junos(
            "j9",
            "        filter WARN {\n            term t {\n                from {\n"
            "                    packet-length 100;\n                }\n"
            "                then accept;\n            }\n        }\n",
        ),
    ),
    (
        "j10.conf",
        _junos(
            "j10",
            JUNOS_FILTER
            + "        filter BAD {\n            term t {\n                from {\n"
            "                    source-address {\n                        10.0.0.0/8;\n"
            "                        11.0.0.0/8;\n                    }\n                }\n"
            "            }\n        }\n",
        ),
    ),
    # the filter's lines inside [ ] would be words, not a filter
    ("j11.conf", _junos("j11", "        [\n" + JUNOS_FILTER + "        ]\n")),
    # another statement starts on the filter's closing line
    (
        "j12.conf",
        _junos(
            "j12",
            "        filter EDGE { term t { then accept; } } filter OTHER {\n"
            "            term u { then discard; }\n        }\n",
        ),
    ),
    # the filter's first word sits inside [ ]
    (
        "j13.conf",
        _junos("j13", "        [\n" + JUNOS_FILTER.replace("filter EDGE {", "filter EDGE ] {")),
    ),
    # truncated files: the same unclosed filter header, different terms
    (
        "j14.conf",
        "system {\n    host-name j14;\n}\nfirewall {\n    family inet {\n"
        "        filter EDGE {\n            term a {\n                then accept;\n"
        "            }\n",
    ),
    (
        "j15.conf",
        "system {\n    host-name j15;\n}\nfirewall {\n    family inet {\n"
        "        filter EDGE {\n            term b {\n                then discard;\n"
        "            }\n",
    ),
]


class TestAdversarialStanzas:
    def test_cisco_lenient_and_strict(self):
        configs = [(name, text, False) for name, text in CISCO_CONFIGS]
        clean = [c for c in CISCO_CONFIGS if c[0] not in ("c5.cfg", "c6.cfg")]
        configs += [(name, text, True) for name, text in clean]
        assert _assert_memo_neutral(configs) > 0

    def test_junos(self):
        configs = [(name, text, False) for name, text in JUNOS_CONFIGS]
        assert _assert_memo_neutral(configs) > 0

    def test_mixed_dialects_share_one_memo(self):
        configs = [
            (name, text, False) for name, text in CISCO_CONFIGS + JUNOS_CONFIGS
        ]
        _assert_memo_neutral(configs[::-1])


def _hits_and_misses(configs, memo):
    before = _counter("parse.stanza_memo.hits"), _counter("parse.stanza_memo.misses")
    devices = [parse_config(text, filename=name, memo=memo) for name, text in configs]
    return devices, (
        _counter("parse.stanza_memo.hits") - before[0],
        _counter("parse.stanza_memo.misses") - before[1],
    )


class TestMemoRules:
    def test_hit_moves_spans_to_the_new_file_and_offset(self):
        memo = StanzaMemo()
        (first, second), counts = _hits_and_misses(CISCO_CONFIGS[:2], memo)
        assert counts == (1, 1)
        line = second.acls["WEB"].lines[0]
        assert line.source.filename == "c2.cfg"
        assert line.source.start_line == 9
        assert line.source.text == (" 10 permit tcp any host 10.0.0.1 eq 80",)
        # span-free leaves are shared, the lines themselves are not
        assert line.dst is first.acls["WEB"].lines[0].dst
        assert line is not first.acls["WEB"].lines[0]

    def test_junos_hit_moves_spans(self):
        memo = StanzaMemo()
        (first, second), counts = _hits_and_misses(JUNOS_CONFIGS[:2], memo)
        assert counts == (1, 1)
        assert [l.source.start_line for l in second.acls["EDGE"].lines] == [
            l.source.start_line + 2 for l in first.acls["EDGE"].lines
        ]

    def test_stanzas_with_diagnostics_are_never_stored(self):
        memo = StanzaMemo()
        warned = [c for c in CISCO_CONFIGS if c[0] == "c6.cfg"] * 2
        warned += [c for c in JUNOS_CONFIGS if c[0] == "j9.conf"] * 2
        devices, (hits, misses) = _hits_and_misses(warned, memo)
        assert hits == 0 and misses == 6
        for device in devices:
            assert device.diagnostics

    def test_comments_and_shared_lines_are_not_memoized(self):
        memo = StanzaMemo()
        configs = [
            c
            for c in JUNOS_CONFIGS
            if c[0] in ("j3.conf", "j4.conf", "j5.conf", "j6.conf", "j12.conf", "j13.conf")
        ]
        _, counts = _hits_and_misses(configs * 2, memo)
        assert counts == (0, 0)

    def test_unclosed_filters_are_not_memoized(self):
        memo = StanzaMemo()
        configs = [c for c in JUNOS_CONFIGS if c[0] in ("j14.conf", "j15.conf")]
        (first, second), counts = _hits_and_misses(configs, memo)
        assert counts == (0, 0)
        assert [l.name for l in first.acls["EDGE"].lines] == ["term a"]
        assert [l.name for l in second.acls["EDGE"].lines] == ["term b"]

    def test_strict_and_lenient_parses_share_clean_stanzas(self):
        # A clean stanza records nothing, so strictness cannot change
        # its parse: a lenient entry serves a strict parse.
        memo = StanzaMemo()
        name, text = CISCO_CONFIGS[0]
        before = _counter("parse.stanza_memo.hits")
        parse_config(text, filename=name, memo=memo)
        strict = parse_config(text, filename=name, strict=True, memo=memo)
        assert _counter("parse.stanza_memo.hits") == before + 1
        live = parse_config(text, filename=name, strict=True, memo=_LiveMemo())
        assert pickle.dumps(strict) == pickle.dumps(live)
        _assert_same(strict, live)

    def test_without_a_memo_nothing_is_shared(self):
        name, text = CISCO_CONFIGS[0]
        before = _counter("parse.stanza_memo.hits")
        parse_config(text, filename=name)
        parse_config(text, filename=name)
        assert _counter("parse.stanza_memo.hits") == before

    @pytest.mark.parametrize("index", [2, 3])
    def test_extended_acls_are_fingerprinted_live(self, index):
        # WEB gains a second block (c3) or a numbered line (c4): its
        # digest must not be the memoized single-block digest.
        memo = StanzaMemo()
        (plain, extended), _ = _hits_and_misses(
            [CISCO_CONFIGS[0], CISCO_CONFIGS[index]], memo
        )
        assert extended.fingerprints.acl("WEB") != plain.fingerprints.acl("WEB")
        assert extended.fingerprints == compute_fingerprints(extended)
