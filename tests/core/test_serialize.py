"""Tests for JSON report serialization."""

import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.core import (
    compare_fleet,
    config_diff,
    fleet_report_to_dict,
    report_to_dict,
    report_to_json,
    semantic_difference_to_dict,
    structural_difference_to_dict,
)
from repro.core import serialize
from repro.core.serialize import SCHEMA_VERSION, dumps, write_json
from repro.parsers import parse_cisco
from repro.workloads.datacenter import gateway_fleet
from repro.workloads.figure1 import (
    CISCO_FIGURE1,
    figure1_devices,
    section2_static_devices,
)


@pytest.fixture(scope="module")
def report():
    return config_diff(*figure1_devices(), exhaustive_communities=True)


class TestSchema:
    def test_top_level_fields(self, report):
        data = report_to_dict(report)
        assert data["schema_version"] == SCHEMA_VERSION == 5
        assert data["degraded"] is False
        assert data["aborted"] == []
        assert data["parse_diagnostics"] == {}
        assert data["router1"] == "cisco_router"
        assert data["router2"] == "juniper_router"
        assert data["equivalent"] is False
        assert data["total_differences"] == report.total_differences()

    def test_json_round_trips(self, report):
        data = json.loads(report_to_json(report))
        assert data == report_to_dict(report)

    def test_semantic_difference_payload(self, report):
        first = report_to_dict(report)["semantic"][0]
        assert first["kind"] == "Route Maps"
        assert first["action"]["router1"] == "REJECT"
        assert first["localization"]["included"] == [
            "10.9.0.0/16 : 16-32",
            "10.100.0.0/16 : 16-32",
        ]
        assert first["localization"]["excluded"] == [
            "10.9.0.0/16 : 16-16",
            "10.100.0.0/16 : 16-16",
        ]
        text = first["text"]["router1"]
        assert text["file"] == "cisco_router.cfg"
        assert text["start_line"] >= 1
        assert any("deny 10" in line for line in text["text"])

    def test_community_extension_serialized(self, report):
        second = report_to_dict(report)["semantic"][1]
        extra = second["extra_localizations"]["communities"]
        assert "10:10" in extra["rendered"] and "10:11" in extra["rendered"]

    def test_structural_difference_payload(self):
        data = report_to_dict(config_diff(*section2_static_devices()))
        static = [d for d in data["structural"] if d["kind"] == "Static Routes"]
        assert len(static) == 1
        assert static[0]["attribute"] == "presence"
        assert static[0]["value"]["router2"] is None
        assert static[0]["text"]["router1"] is not None
        assert static[0]["text"]["router2"] is None

    def test_equivalent_report(self):
        device1 = parse_cisco(CISCO_FIGURE1, "a.cfg")
        device2 = parse_cisco(CISCO_FIGURE1, "b.cfg")
        data = report_to_dict(config_diff(device1, device2))
        assert data["equivalent"] is True
        assert data["semantic"] == []
        assert data["structural"] == []


class TestDifferenceDictWrappers:
    def test_semantic_difference_json_roundtrip(self, report):
        for difference in report.semantic:
            data = semantic_difference_to_dict(difference)
            assert json.loads(json.dumps(data)) == data

    def test_structural_difference_json_roundtrip(self):
        static_report = config_diff(*section2_static_devices())
        assert static_report.structural
        for difference in static_report.structural:
            data = structural_difference_to_dict(difference)
            assert json.loads(json.dumps(data)) == data


class TestFleetReportDict:
    @pytest.fixture(scope="class")
    def fleet_report(self):
        devices, _ = gateway_fleet(count=4, outliers=1, rule_count=8, seed=2)
        return compare_fleet(devices)

    def test_shape(self, fleet_report):
        data = fleet_report_to_dict(fleet_report)
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["reference"] == fleet_report.reference
        assert data["hostnames"] == fleet_report.hostnames
        assert data["outliers"] == fleet_report.outliers
        assert data["conforming"] == fleet_report.conforming
        for first, second, count in data["matrix"]:
            assert fleet_report.pair_count(first, second) == count
        for hostname, report in fleet_report.reports.items():
            assert data["reports"][hostname] == report_to_dict(report)

    def test_json_roundtrip_and_no_timing(self, fleet_report):
        data = fleet_report_to_dict(fleet_report)
        assert json.loads(json.dumps(data)) == data
        # Deliberately timing-free: two runs over the same fleet must
        # serialize byte-identically (the CI test job diffs them).
        assert "seconds" not in json.dumps(data)

    def test_matrix_is_sorted(self, fleet_report):
        data = fleet_report_to_dict(fleet_report)
        assert data["matrix"] == sorted(data["matrix"])

    def test_v4_partial_and_notes(self, fleet_report):
        data = fleet_report_to_dict(fleet_report)
        assert data["partial"] is False  # machine-readable, not a note
        assert data["notes"] == list(fleet_report.notes)
        assert data["notes"] == sorted(data["notes"])

    def test_v4_coverage_section(self, fleet_report):
        data = fleet_report_to_dict(fleet_report)
        assert sorted(data["coverage"]) == fleet_report.hostnames
        for hostname, entry in data["coverage"].items():
            coverage = fleet_report.coverage[hostname]
            assert entry == coverage.to_dict()
            assert entry["policy_lines"] >= entry["exercised_lines"] >= 0
            names = [policy["name"] for policy in entry["policies"]]
            assert names == sorted(names)

    def test_v4_partial_true_on_failed_pairs(self):
        devices, _ = gateway_fleet(count=4, outliers=1, rule_count=8, seed=2)
        report = compare_fleet(devices)
        report.failed_pairs[("gw0", "gw1")] = "injected failure"
        data = fleet_report_to_dict(report)
        assert data["partial"] is True


class TestCliJson:
    def test_compare_json_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.workloads.figure1 import JUNIPER_FIGURE1

        cisco = tmp_path / "c.cfg"
        juniper = tmp_path / "j.cfg"
        cisco.write_text(CISCO_FIGURE1)
        juniper.write_text(JUNIPER_FIGURE1)
        code = main(["compare", "--json", str(cisco), str(juniper)])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["equivalent"] is False
        assert len(data["semantic"]) == 2


# -- the indent=2 writer -------------------------------------------------------


def _written(value) -> str:
    return dumps(value)


def _counted(value):
    """The writer's text plus its (fragments, fragment renders) counts."""
    before = perf.snapshot()["counters"]
    text = _written(value)
    after = perf.snapshot()["counters"]
    return text, tuple(
        after.get(name, 0) - before.get(name, 0)
        for name in ("serialize.fragments", "serialize.fragment_renders")
    )


class _Str(str):
    pass


class _Int(int):
    pass


class _Dict(dict):
    pass


_HOLE = serialize._HOLE


def _span(filename, line=4):
    return {
        "file": filename,
        "start_line": line,
        "end_line": line,
        "text": [" permit ip any any"],
    }


def _fragment(file1="a.cfg", file2="b.cfg"):
    return {
        "kind": "ACLs",
        "step": {"router1": "permit", "router2": "default deny"},
        "text": {"router1": _span(file1), "router2": _span(file2, 9)},
        "localization": None,
        "example": {"protocol": "udp"},
    }


_PINNED = {
    "tuples": {"pairs": (("a", "b", 1), ()), "mixed": [(1, [2, (3,)]), {"t": (None,)}]},
    "subclasses": {
        _Str("key"): [_Str("value"), _Int(7), True, {"n": _Int(-3)}],
        "flat": {"s": _Str("x"), "i": _Int(2)},
        "semantic": [{"text": {"router1": {"file": _Str("sub.cfg")}}}],
    },
    "non-str keys": {1: "one", 2.5: [1], True: None, None: {3: 4}, -0.0: "z"},
    "nan, inf and -0.0": [
        math.nan,
        math.inf,
        -math.inf,
        -0.0,
        {"x": [math.nan, 1e300, -0.0]},
        [[math.inf, 1], [2.5, 3]],
    ],
    "non-ASCII and control characters": {
        "caf\u00e9": ["\u00fc\u20ac\U0001f600", "tab\tnew\nline\x00\x01\x7f"],
        "semantic": [_fragment("r\u00e9seau\n.cfg", "\x01.cfg")],
        "rows": [["\u00e9", "\n"], ["\x02", 1]],
    },
    "file equal to the placeholder": {
        "semantic": [_fragment(_HOLE, "b.cfg"), _fragment("a.cfg", _HOLE)]
    },
    "placeholder elsewhere": {
        "structural": [
            {"kind": _HOLE, "text": {"router1": _span("a.cfg")}},
            {"kind": 'x"' + _HOLE, "text": {"router1": _span("a.cfg")}},
            {_HOLE: 1, "text": {"router1": _span("a.cfg")}},
        ]
    },
    "placeholder file that is not held out": {
        "semantic": [
            {"text": {"router1": {"file": "a.cfg"}}},
            {"text": {"router1": {"file": _Str(_HOLE)}}},
            {"text": {"router1": _Dict(file=_HOLE)}},
        ]
    },
    "non-string file": {
        "semantic": [
            {"text": {"router1": {"file": 7}, "router2": {"file": None}}},
            {"text": {"router1": {"file": ["a.cfg"]}, "router2": _span("b.cfg")}},
        ]
    },
    "text null": {"semantic": [{"kind": "ACLs", "text": None}], "structural": [None, 3]},
    "one fragment at two depths": {
        "semantic": [_fragment()],
        "reports": {"gw1": {"semantic": [_fragment("c.cfg")], "structural": []}},
    },
    "empty containers": {
        "a": [],
        "b": {},
        "c": [[], {}, ()],
        "d": [{}, {}],
        "e": [[1], []],
        "semantic": [],
        "structural": [{}, []],
    },
    "rows": {
        "matrix": [["gw0", "gw1", 3], ["gw0", "gw2", 0]],
        "bracketed": [["gw[0]", "{gw1}", 3], ["a", "b", 4]],
        "separator in a string": [["],\n      [", "]"], ("[", 1)],
        "nested": [[1, [2]], [3, 4]],
        "dicts": [{"k": "a", "n": 1}, {"k": "b", "n": 2}],
        "dicts with lists": [{"k": "a", "n": 1}, {"k": "b", "n": [2]}],
        "mixed": [[1, 2], {"k": 3}],
    },
    "scalars": [None, True, False, 0, -1, 10**30, 1.5, "", "s"],
}


class TestIndent2Writer:
    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_pinned_cases_match_the_stdlib(self, name):
        value = _PINNED[name]
        assert _written(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [None, 1, "s", [], {}, math.nan, (1,)])
    def test_top_level_scalars_and_empties(self, value):
        assert _written(value) == json.dumps(value, indent=2)

    def test_unserializable_value_raises_like_the_stdlib(self):
        with pytest.raises(TypeError):
            json.dumps({"a": [object()]}, indent=2)
        with pytest.raises(TypeError):
            _written({"a": [object()]})
        with pytest.raises(TypeError):
            _written({"a": {(1, 2): 3}})

    def test_repeated_fragment_renders_once_per_depth(self):
        value = {
            "semantic": [_fragment("a.cfg"), _fragment("c.cfg"), _fragment()],
            "reports": {
                "gw1": {"semantic": [_fragment("d.cfg", "e.cfg")]},
                "gw2": {"semantic": [_fragment("f.cfg", "g.cfg")]},
            },
        }
        text, counts = _counted(value)
        assert text == json.dumps(value, indent=2)
        assert counts == (5, 2)

    def test_placeholder_collisions_render_directly(self):
        colliding = _PINNED["placeholder elsewhere"]["structural"]
        plain = {"kind": "ok", "text": {"router1": _span("a.cfg")}}
        doubled = {"structural": (colliding + [plain]) * 2}
        text, counts = _counted(doubled)
        assert text == json.dumps(doubled, indent=2)
        # A string or key that encodes to the hole's token splits the
        # template once too often: those render every time, uncached.
        assert counts == (8, 7)

    def test_write_json_streams_chunks_and_a_newline(self):
        value = {"matrix": [["a", "b", 1]], "reports": {"a": {"x": 1}, "b": {}}}
        stream = io.StringIO()
        chunks = []
        stream.write = chunks.append
        write_json(value, stream)
        assert "".join(chunks) == json.dumps(value, indent=2) + "\n"
        # A chunk ends after each top-level member and after each item of
        # a dict one level down (a fleet's device reports).
        assert chunks[1].endswith('"a": {\n      "x": 1\n    }')
        assert chunks[2] == ',\n    "b": {}'
        assert len(chunks) == 6

    def test_without_the_c_encoder_the_stdlib_writes(self, monkeypatch):
        monkeypatch.setattr(serialize, "c_make_encoder", None)
        value = _PINNED["one fragment at two depths"]
        stream = io.StringIO()
        chunks = []
        stream.write = chunks.append
        write_json(value, stream)
        assert chunks == [json.dumps(value, indent=2), "\n"]
        assert dumps(value) == json.dumps(value, indent=2)

    def test_report_to_json_matches_the_stdlib(self, report):
        assert report_to_json(report) == json.dumps(report_to_dict(report), indent=2)


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.sampled_from([_HOLE, 'x"' + _HOLE, "a.cfg", "[", "{}"])
)
_JSON_KEYS = (
    st.text()
    | st.sampled_from(["semantic", "structural", "text", "file", _HOLE])
    | st.integers()
    | st.floats(allow_nan=False)
    | st.booleans()
    | st.none()
)
_SPANS = st.none() | st.fixed_dictionaries(
    {"file": _JSON_SCALARS, "start_line": st.integers(), "text": st.lists(st.text())}
)
_FRAGMENTS = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["ACLs", "Route Maps"]),
        "text": st.none()
        | st.dictionaries(st.sampled_from(["router1", "router2"]), _SPANS),
    }
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_JSON_KEYS, children, max_size=4)
    | st.dictionaries(
        st.sampled_from(["semantic", "structural"]),
        st.lists(_FRAGMENTS | children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_writer_matches_json_dumps_indent_2(value):
    assert _written(value) == json.dumps(value, indent=2)


class TestCliFleetJson:
    def test_warm_parameterized_clos_fleet_matches_the_stdlib(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro import cli
        from repro.workloads.datacenter import parameterized_clos_fleet

        devices, _ = parameterized_clos_fleet(count=8, roles=3, rule_count=6, seed=0)
        paths = []
        for device in devices:
            path = tmp_path / f"{device.hostname}.cfg"
            path.write_text("\n".join(device.raw_lines) + "\n")
            paths.append(str(path))
        built = []

        def capturing(report):
            built.append(fleet_report_to_dict(report))
            return built[-1]

        monkeypatch.setattr(cli, "fleet_report_to_dict", capturing)
        argv = ["--cache-dir", str(tmp_path / "cache"), "fleet", "--json", *paths]
        assert cli.main(argv) == 1
        capsys.readouterr()
        before = perf.snapshot()["counters"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        after = perf.snapshot()["counters"]
        assert "misses=0" in captured.err
        assert captured.out == json.dumps(built[-1], indent=2) + "\n"
        fragments, renders = (
            after[name] - before.get(name, 0)
            for name in ("serialize.fragments", "serialize.fragment_renders")
        )
        assert renders < fragments
