"""Tests for fleet symmetry compression (fingerprint equivalence classes).

The invariant under test: ``compare_fleet`` with compression on (the
default, ``near``) produces a report — and a serialized form —
identical to ``compress="off"``, on templated fleets, clone fleets, and
fleets with no symmetry at all.  The supporting machinery (partition
determinism, representative election, plan expansion, failure
expansion, mode resolution, the CLI default against ``compress="off"``)
is covered alongside.
"""

import io
import json

import pytest

from repro.core import compare_fleet, fleet_report_to_dict
from repro.core import parallel
from repro.core.fleet import resolve_compress
from repro.core.near_symmetry import SymmetryPlan, plan_near_pairs
from repro.core.parallel import PairOutcome
from repro.core.serialize import write_json
from repro.model.fingerprint import partition_by_device_fingerprint
from repro.parsers import load_config, parse_cisco
from repro.workloads.datacenter import gateway_fleet, templated_clos_fleet
from repro.workloads.figure1 import CISCO_FIGURE1


def _named(text, hostname):
    return parse_cisco(
        text.replace("hostname cisco_router", f"hostname {hostname}"),
        f"{hostname}.cfg",
    )


class TestPartition:
    def test_clones_share_one_class(self):
        # Hostnames and filenames are deliberately excluded from the
        # fingerprint, so renamed clones land in a single class.
        fleet = [_named(CISCO_FIGURE1, name) for name in ("c", "a", "b")]
        classes = partition_by_device_fingerprint(fleet)
        assert list(classes.values()) == [("a", "b", "c")]

    def test_templated_fleet_has_roles_times_vendors_classes(self):
        devices, _ = templated_clos_fleet(
            count=12, roles=3, rule_count=8, seed=1, vendors=2
        )
        assert len(partition_by_device_fingerprint(devices)) == 6
        devices, _ = templated_clos_fleet(
            count=12, roles=3, rule_count=8, seed=1, vendors=1
        )
        assert len(partition_by_device_fingerprint(devices)) == 3

    def test_partition_independent_of_input_order(self):
        devices, _ = templated_clos_fleet(
            count=6, roles=2, rule_count=6, seed=0, vendors=1
        )
        forward = partition_by_device_fingerprint(devices)
        backward = partition_by_device_fingerprint(list(reversed(devices)))
        assert forward == backward


def _class_plan(classes):
    """A plan over fingerprint classes alone: every representative pair
    analyzed, none replayed."""
    representative, members = {}, {}
    for hostnames in classes.values():
        group = tuple(sorted(hostnames))
        members[group[0]] = group
        for hostname in group:
            representative[hostname] = group[0]
    reps = sorted(members)
    pair_keys = tuple(
        (first, second)
        for index, first in enumerate(reps)
        for second in reps[index + 1 :]
    )
    return SymmetryPlan(representative, members, pair_keys)


def _variant(hostname, prefix):
    """A figure-1 clone whose NETS prefix list matches ``prefix``."""
    return _named(CISCO_FIGURE1.replace("10.100.0.0/16", prefix), hostname)


class TestPlan:
    CLASSES = {"f1": ("b", "a"), "f2": ("c",)}

    def test_representative_is_smallest_hostname(self):
        fleet = [
            _named(CISCO_FIGURE1, "b"),
            _named(CISCO_FIGURE1, "a"),
            _variant("c", "10.101.0.0/16"),
        ]
        plan, notes = plan_near_pairs(fleet)
        assert notes == []
        assert plan.representative == {"a": "a", "b": "a", "c": "c"}
        assert plan.members == {"a": ("a", "b"), "c": ("c",)}
        assert plan.class_count == 2

    def test_pair_keys_are_sorted_representative_pairs(self):
        fleet = [
            _named(CISCO_FIGURE1, "d"),
            _named(CISCO_FIGURE1, "b"),
            _variant("a", "10.101.0.0/16"),
            _variant("c", "10.102.0.0/16"),
        ]
        plan, _ = plan_near_pairs(fleet)
        assert plan.pair_keys == (("a", "b"), ("a", "c"), ("b", "c"))

    def test_expand_intra_class_pairs_to_zero_without_outcomes(self):
        plan = _class_plan({"f": ("a", "b", "c")})
        # No representative pair exists, so no outcome is ever consulted.
        matrix, failed, fallback = plan.expand_near(["a", "b", "c"], {})
        assert matrix == {("a", "b"): 0, ("a", "c"): 0, ("b", "c"): 0}
        assert failed == {} and fallback == []

    def test_expand_copies_representative_count_across_class(self):
        plan = _class_plan(self.CLASSES)
        outcome = PairOutcome(result=7)
        matrix, failed, fallback = plan.expand_near(
            ["a", "b", "c"], {("a", "c"): outcome}
        )
        assert matrix == {("a", "b"): 0, ("a", "c"): 7, ("b", "c"): 7}
        assert failed == {} and fallback == []

    def test_expand_copies_representative_failure_verbatim(self):
        plan = _class_plan(self.CLASSES)
        outcome = PairOutcome(error="boom")
        matrix, failed, fallback = plan.expand_near(
            ["a", "b", "c"], {("a", "c"): outcome}
        )
        assert matrix == {("a", "b"): 0}
        assert failed == {
            ("a", "c"): outcome.describe(),
            ("b", "c"): outcome.describe(),
        }
        assert fallback == []  # an analyzed pair's failure never falls back


class TestCompressedEqualsUncompressed:
    """The oracle's ``symmetry`` generator checks exactly this identity;
    these are the deterministic fixed-fleet versions."""

    def _identical(self, devices):
        compressed = compare_fleet(devices)
        uncompressed = compare_fleet(devices, compress="off")
        assert fleet_report_to_dict(compressed) == fleet_report_to_dict(
            uncompressed
        )
        return compressed, uncompressed

    def test_clone_fleet(self):
        fleet = [_named(CISCO_FIGURE1, name) for name in ("a", "b", "c", "d")]
        compressed, _ = self._identical(fleet)
        stats = compressed.symmetry
        assert stats.classes == 1
        assert stats.analyzed_pairs == 0
        assert stats.expanded_pairs == stats.total_pairs == 6

    def test_templated_cross_vendor_fleet(self):
        devices, _ = templated_clos_fleet(
            count=8, roles=2, rule_count=6, seed=3, vendors=2
        )
        compressed, uncompressed = self._identical(devices)
        assert compressed.symmetry.classes == 4
        assert compressed.symmetry.analyzed_pairs == 6
        assert compressed.symmetry.total_pairs == 28
        assert uncompressed.symmetry is None

    def test_fleet_with_outliers(self):
        devices, expected = gateway_fleet(
            count=5, outliers=2, rule_count=10, seed=4
        )
        compressed, _ = self._identical(devices)
        assert compressed.outliers == expected

    def test_election_matches_uncompressed(self):
        devices, _ = gateway_fleet(count=6, outliers=1, rule_count=8, seed=7)
        compressed, uncompressed = self._identical(devices)
        assert compressed.reference == uncompressed.reference

    def test_use_memo_false_still_identical(self):
        devices, _ = templated_clos_fleet(
            count=6, roles=2, rule_count=6, seed=0, vendors=1
        )
        baseline = fleet_report_to_dict(
            compare_fleet(devices, compress="off", use_memo=False)
        )
        compressed = fleet_report_to_dict(
            compare_fleet(devices, use_memo=False)
        )
        assert compressed == baseline


class TestFailureExpansion:
    def test_failed_representative_pair_fails_its_whole_class(
        self, monkeypatch
    ):
        devices, _ = templated_clos_fleet(
            count=3, roles=2, rule_count=6, seed=0, vendors=1
        )
        classes = partition_by_device_fingerprint(devices)
        assert len(classes) == 2
        pair_class = next(g for g in classes.values() if len(g) == 2)
        first, second = pair_class
        (singleton,) = next(g for g in classes.values() if len(g) == 1)

        def boom(device1, device2, **options):
            raise RuntimeError("boom")

        monkeypatch.setattr(parallel, "_count_pair", boom)
        # The failed pair was analyzed itself, so the pairs it stands
        # for are content-identical and fail with it; merely
        # near-symmetric members fall back to concrete analysis
        # instead (see tests/core/test_near_symmetry.py).
        report = compare_fleet(devices)
        # The intra-class pair never ran _count_pair, so it survives ...
        assert report.matrix[(first, second)] == 0
        # ... which makes `first` the medoid; the reference phase then
        # repairs (first, singleton) via config_diff, leaving exactly
        # the expanded copy (second, singleton) failed with the
        # representative pair's cause.
        assert report.reference == first
        key = (min(second, singleton), max(second, singleton))
        assert set(report.failed_pairs) == {key}
        assert "boom" in report.failed_pairs[key]
        assert report.is_partial()


class TestResolveCompress:
    def test_default_is_near(self):
        assert resolve_compress() == "near"
        assert resolve_compress(None) == "near"

    @pytest.mark.parametrize("mode", ["off", "near"])
    def test_mode_strings_pass_through(self, mode):
        assert resolve_compress(mode) == mode
        assert resolve_compress(mode.upper()) == mode

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="compress must be one of"):
            resolve_compress("sorta")

    @pytest.mark.parametrize("mode", ["exact", True, False])
    def test_exact_and_booleans_are_rejected(self, mode):
        with pytest.raises(ValueError, match="off, near"):
            resolve_compress(mode)
        fleet = [_named(CISCO_FIGURE1, name) for name in ("a", "b")]
        with pytest.raises(ValueError, match="off, near"):
            compare_fleet(fleet, compress=mode)


class TestSymmetryStats:
    def test_render_mentions_classes_and_pairs(self):
        devices, _ = templated_clos_fleet(
            count=8, roles=2, rule_count=6, seed=3, vendors=2
        )
        rendered = compare_fleet(devices).symmetry.render()
        assert "8 device(s)" in rendered
        assert "4 template class(es)" in rendered
        assert "analyzed 6 of 28" in rendered

    def test_near_render_mentions_template_classes(self):
        fleet = [_named(CISCO_FIGURE1, name) for name in ("a", "b", "c")]
        stats = compare_fleet(fleet).symmetry  # default mode is near
        rendered = stats.render()
        assert "3 device(s)" in rendered
        assert "1 template class(es)" in rendered
        assert "analyzed 0 of 3" in rendered

    def test_stats_not_serialized(self):
        fleet = [_named(CISCO_FIGURE1, name) for name in ("a", "b")]
        data = fleet_report_to_dict(compare_fleet(fleet))
        assert "symmetry" not in json.dumps(data)


class TestCli:
    def _write_fleet(self, tmp_path, devices):
        paths = []
        for device in devices:
            path = tmp_path / f"{device.hostname}.cfg"
            path.write_text("\n".join(device.raw_lines) + "\n")
            paths.append(str(path))
        return paths

    def test_no_compress_flag_prints_identical_json(self, tmp_path, capsys):
        from repro.cli import main

        devices, _ = templated_clos_fleet(
            count=4, roles=1, rule_count=6, seed=0, vendors=1
        )
        paths = self._write_fleet(tmp_path, devices)
        code = main(["fleet", "--json"] + paths)
        compressed_out = capsys.readouterr().out
        uncompressed = compare_fleet(
            [load_config(path) for path in paths], compress="off"
        )
        out = io.StringIO()
        write_json(fleet_report_to_dict(uncompressed), out)
        assert code == 0 and not uncompressed.outliers
        assert not uncompressed.is_partial()
        assert compressed_out == out.getvalue()
        assert json.loads(compressed_out)["outliers"] == []

    def test_human_output_shows_symmetry_line_only_when_compressed(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        devices, _ = templated_clos_fleet(
            count=4, roles=1, rule_count=6, seed=0, vendors=1
        )
        paths = self._write_fleet(tmp_path, devices)
        main(["fleet"] + paths)
        assert "symmetry:" in capsys.readouterr().out
        # A given reference skips the matrix phase, so nothing compressed.
        main(["fleet", "--reference", devices[0].hostname] + paths)
        assert "symmetry:" not in capsys.readouterr().out
