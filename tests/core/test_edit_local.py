"""Edit-local SemanticDiff for ACLs: ``diff_acls`` builds classes only
inside the region where the two rule lists differ, and must emit exactly
the differences of the full partitions (same class indices, same
hash-consed overlap nodes), witnessed by the concrete first-match
evaluator."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.bdd import complete_model
from repro.core import semantic_diff
from repro.core.results import ComponentKind
from repro.core.semantic_diff import diff_acls, semantic_diff_classes
from repro.encoding import PacketSpace, acl_equivalence_classes
from repro.model import Acl, AclAction, AclLine, IpWildcard, Prefix
from repro.model.acl import PortRange

# Small pools so random lines overlap, shadow and repeat often.
_WILDCARDS = (
    IpWildcard.any(),
    IpWildcard.from_prefix(Prefix.parse("10.0.0.0/8")),
    IpWildcard.from_prefix(Prefix.parse("10.1.0.0/16")),
    IpWildcard.from_prefix(Prefix.parse("10.1.2.0/24")),
    IpWildcard.from_prefix(Prefix.parse("10.2.0.0/16")),
    IpWildcard.host(0x0A010203),  # 10.1.2.3
    IpWildcard(0x0A000001, 0x00FFFF00),  # 10.x.x.1, non-contiguous
    IpWildcard(0x00000000, 0xFFFFFFFE),  # even addresses, non-contiguous
)
_PORT_RANGES = (
    PortRange.single(22),
    PortRange.single(80),
    PortRange(20, 25),
    PortRange(1024, 65535),
    PortRange(0, 100),
)
_PROTOCOLS = (None, 1, 6, 17)
_ICMP_TYPES = (None, 0, 8)

_ports = st.lists(st.sampled_from(_PORT_RANGES), max_size=2, unique=True).map(
    tuple
)


@st.composite
def acl_lines(draw):
    return AclLine(
        action=draw(st.sampled_from(AclAction)),
        src=draw(st.sampled_from(_WILDCARDS)),
        dst=draw(st.sampled_from(_WILDCARDS)),
        protocol=draw(st.sampled_from(_PROTOCOLS)),
        src_ports=draw(_ports),
        dst_ports=draw(_ports),
        icmp_type=draw(st.sampled_from(_ICMP_TYPES)),
        name=draw(st.sampled_from(("", "term-a", "term-b"))),
    )


@st.composite
def acls(draw, max_lines=10):
    return Acl(
        name="F",
        lines=tuple(draw(st.lists(acl_lines(), max_size=max_lines))),
        default_action=draw(st.sampled_from(AclAction)),
    )


def _flip(action):
    return AclAction.DENY if action is AclAction.PERMIT else AclAction.PERMIT


@st.composite
def edited_pairs(draw):
    """An ACL and a copy with 0-3 random edits applied."""
    acl = draw(acls())
    lines = list(acl.lines)
    default = acl.default_action
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(
            st.sampled_from(("insert", "delete", "flip", "field", "move", "default"))
        )
        if kind == "insert":
            lines.insert(draw(st.integers(0, len(lines))), draw(acl_lines()))
        elif kind == "default":
            default = _flip(default)
        elif not lines:
            continue
        else:
            index = draw(st.integers(0, len(lines) - 1))
            line = lines[index]
            if kind == "delete":
                del lines[index]
            elif kind == "flip":
                lines[index] = dataclasses.replace(line, action=_flip(line.action))
            elif kind == "field":
                field_name, value = draw(
                    st.one_of(
                        st.tuples(st.just("src"), st.sampled_from(_WILDCARDS)),
                        st.tuples(st.just("dst"), st.sampled_from(_WILDCARDS)),
                        st.tuples(st.just("protocol"), st.sampled_from(_PROTOCOLS)),
                        st.tuples(st.just("src_ports"), _ports),
                        st.tuples(st.just("dst_ports"), _ports),
                        st.tuples(st.just("icmp_type"), st.sampled_from(_ICMP_TYPES)),
                    )
                )
                lines[index] = dataclasses.replace(line, **{field_name: value})
            else:  # move
                del lines[index]
                lines.insert(draw(st.integers(0, len(lines))), line)
    edited = dataclasses.replace(acl, lines=tuple(lines), default_action=default)
    return acl, edited


def _keys(differences):
    return [
        (d.class1.index, d.class2.index, d.input_set.node) for d in differences
    ]


def _assert_local_equals_full(acl1, acl2):
    """The edit-local diff equals the full build node for node, and every
    witness reproduces under the concrete evaluator."""
    space = PacketSpace()
    _, local = diff_acls(acl1, acl2, space=space)
    full = semantic_diff_classes(
        ComponentKind.ACL,
        acl_equivalence_classes(space, acl1),
        acl_equivalence_classes(space, acl2),
    )
    assert _keys(local) == _keys(full)
    for difference in local:
        packet = space.decode(
            complete_model(difference.input_set, space.manager.num_vars)
        )
        fields = (
            packet.src_ip,
            packet.dst_ip,
            packet.protocol,
            packet.src_port,
            packet.dst_port,
            packet.icmp_type,
        )
        assert acl1.evaluate_concrete(*fields) is difference.class1.action
        assert acl2.evaluate_concrete(*fields) is difference.class2.action
    return local


def _counters(acl1, acl2):
    perf.reset()
    diff_acls(acl1, acl2)
    counters = perf.snapshot()["counters"]
    perf.reset()
    return counters


def _line(dst="10.1.0.0/16", action=AclAction.PERMIT, **fields):
    return AclLine(
        action=action, dst=IpWildcard.from_prefix(Prefix.parse(dst)), **fields
    )


class TestProperties:
    @given(edited_pairs())
    @settings(max_examples=150, deadline=None)
    def test_random_edits_match_full_build(self, pair):
        _assert_local_equals_full(*pair)

    @given(acls(), acls())
    @settings(max_examples=40, deadline=None)
    def test_unrelated_acls_match_full_build(self, acl1, acl2):
        _assert_local_equals_full(acl1, acl2)

    @given(acl_lines(), acl_lines())
    @settings(max_examples=300, deadline=None)
    def test_overlaps_equals_bdd_intersects(self, line1, line2):
        space = PacketSpace()
        expected = space.line_pred(line1).intersects(space.line_pred(line2))
        assert line1.overlaps(line2) is expected
        assert line2.overlaps(line1) is expected


class TestPinnedCases:
    BASE = Acl(
        "F",
        lines=tuple(
            _line(f"10.{i}.0.0/16", protocol=6, dst_ports=(PortRange.single(80),))
            for i in range(40)
        ),
    )

    def test_identical_acls_build_no_classes(self):
        assert _assert_local_equals_full(self.BASE, self.BASE) == []
        counters = _counters(self.BASE, self.BASE)
        assert "semantic_diff.classes" not in counters
        assert "semantic_diff.full_builds" not in counters

    def test_one_edit_builds_only_overlapping_lines(self):
        lines = list(self.BASE.lines)
        lines[7] = dataclasses.replace(lines[7], action=AclAction.DENY)
        edited = dataclasses.replace(self.BASE, lines=tuple(lines))
        (difference,) = _assert_local_equals_full(self.BASE, edited)
        assert (difference.class1.index, difference.class2.index) == (7, 7)
        counters = _counters(self.BASE, edited)
        # The edited line on each side, nothing else: the region is
        # covered, so no default class remains.
        assert counters["semantic_diff.classes"] == 2
        assert "semantic_diff.full_builds" not in counters

    def test_differing_defaults_fall_back(self):
        other = dataclasses.replace(self.BASE, default_action=AclAction.PERMIT)
        differences = _assert_local_equals_full(self.BASE, other)
        assert differences and all(d.class1.is_default for d in differences)
        assert _counters(self.BASE, other)["semantic_diff.full_builds"] == 1

    def test_every_line_different_falls_back(self):
        other = Acl(
            "F",
            lines=tuple(
                _line(f"10.{i}.0.0/16", protocol=17) for i in range(100, 140)
            ),
        )
        _assert_local_equals_full(self.BASE, other)
        assert _counters(self.BASE, other)["semantic_diff.full_builds"] == 1

    def test_share_threshold_bounds_the_local_path(self, monkeypatch):
        lines = list(self.BASE.lines)
        lines[3] = dataclasses.replace(lines[3], action=AclAction.DENY)
        edited = dataclasses.replace(self.BASE, lines=tuple(lines))
        assert "semantic_diff.full_builds" not in _counters(self.BASE, edited)
        # Two unaligned lines of 80: a share just below 2/80 forces the
        # fallback, with the same differences.
        monkeypatch.setattr(semantic_diff, "EDIT_LOCAL_MAX_SHARE", 1 / 80)
        assert _counters(self.BASE, edited)["semantic_diff.full_builds"] == 1
        _assert_local_equals_full(self.BASE, edited)

    def test_names_do_not_break_alignment(self):
        named = dataclasses.replace(
            self.BASE,
            lines=tuple(
                dataclasses.replace(line, name=f"term-{i}")
                for i, line in enumerate(self.BASE.lines)
            ),
        )
        assert _assert_local_equals_full(self.BASE, named) == []
        assert "semantic_diff.classes" not in _counters(self.BASE, named)

    @pytest.mark.parametrize(
        "changed",
        [
            # non-contiguous wildcard: 10.x.x.1
            {"src": IpWildcard(0x0A000001, 0x00FFFF00)},
            # multi-range port lists
            {"dst_ports": (PortRange(20, 25), PortRange(79, 81))},
            {"src_ports": (PortRange.single(22), PortRange(1024, 65535))},
            # protocol / icmp_type of None match any value
            {"protocol": None, "dst_ports": ()},
            {"protocol": 1, "dst_ports": (), "icmp_type": 8},
            {"protocol": None, "dst_ports": (), "icmp_type": None},
        ],
    )
    def test_field_edits(self, changed):
        lines = list(self.BASE.lines)
        lines[5] = dataclasses.replace(lines[5], **changed)
        lines.insert(
            20, dataclasses.replace(lines[0], action=AclAction.DENY, **changed)
        )
        edited = dataclasses.replace(self.BASE, lines=tuple(lines))
        assert _assert_local_equals_full(self.BASE, edited)
        assert "semantic_diff.full_builds" not in _counters(self.BASE, edited)

    def test_overlaps_pinned(self):
        tcp80 = _line(protocol=6, dst_ports=(PortRange.single(80),))
        assert tcp80.overlaps(_line())
        assert not tcp80.overlaps(_line(protocol=17))
        assert not tcp80.overlaps(_line("10.2.0.0/16"))
        assert tcp80.overlaps(_line(dst_ports=(PortRange(1, 10), PortRange(70, 90))))
        assert not tcp80.overlaps(_line(dst_ports=(PortRange(1, 79),)))
        odd = AclLine(action=AclAction.PERMIT, src=IpWildcard(1, 0xFFFFFFFE))
        even = AclLine(action=AclAction.PERMIT, src=IpWildcard(0, 0xFFFFFFFE))
        assert not odd.overlaps(even)
        assert odd.overlaps(AclLine(action=AclAction.DENY))
        echo = AclLine(action=AclAction.PERMIT, protocol=1, icmp_type=8)
        assert echo.overlaps(AclLine(action=AclAction.PERMIT, icmp_type=None))
        assert not echo.overlaps(AclLine(action=AclAction.PERMIT, icmp_type=0))
