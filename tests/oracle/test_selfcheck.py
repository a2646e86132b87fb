"""Tests for the selfcheck driver: determinism, pass on the pinned seed,
shrinking, and the CLI subcommand's exit-code contract."""

import dataclasses
import json
import random

import pytest

from repro.cli import main
from repro.model import AclAction, AclLine, IpWildcard, Prefix
from repro.oracle import driver, run_selfcheck
from repro.oracle.driver import (
    _random_route_map,
    _render_route_map,
    _shrink_acl_pair,
    _shrink_route_map_pair,
)
from repro.model.acl import Acl


class TestRunSelfcheck:
    def test_pinned_seed_passes(self):
        result = run_selfcheck(seed=0, pairs=9)
        assert result.passed, result.render()
        assert result.samples > 0
        assert result.witnesses > 0
        assert result.localizations > 0

    def test_deterministic(self):
        first = run_selfcheck(seed=3, pairs=6)
        second = run_selfcheck(seed=3, pairs=6)
        assert first.passed and second.passed
        assert (first.differences, first.samples, first.witnesses) == (
            second.differences,
            second.samples,
            second.witnesses,
        )

    def test_progress_callback(self):
        seen = []
        run_selfcheck(seed=0, pairs=3, on_progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_render_mentions_verdict(self):
        result = run_selfcheck(seed=0, pairs=3)
        assert "PASSED" in result.render()


class TestRandomRouteMaps:
    def test_deterministic_by_rng(self):
        assert _random_route_map(random.Random(9), "RM") == _random_route_map(
            random.Random(9), "RM"
        )

    def test_renderable(self):
        route_map = _random_route_map(random.Random(4), "RM")
        rendered = "\n".join(_render_route_map(route_map))
        assert "route-map RM" in rendered


class TestShrinking:
    def _acl(self, count):
        lines = tuple(
            AclLine(
                action=AclAction.PERMIT,
                dst=IpWildcard.from_prefix(Prefix.parse(f"10.{i}.0.0/16")),
            )
            for i in range(count)
        )
        return Acl("F", lines=lines, default_action=AclAction.DENY)

    def test_shrinks_to_failing_core(self):
        acl1, acl2 = self._acl(8), self._acl(8)
        marker = acl1.lines[3]

        def fails(a1, a2):
            return marker in a1.lines

        shrunk1, shrunk2 = _shrink_acl_pair(acl1, acl2, fails)
        assert shrunk1.lines == (marker,)
        assert shrunk2.lines == ()

    def test_route_map_shrink_drops_irrelevant_clauses(self):
        map1 = _random_route_map(random.Random(11), "RM1")
        map2 = _random_route_map(random.Random(12), "RM2")
        if not map1.clauses:
            map1 = dataclasses.replace(
                map1, clauses=_random_route_map(random.Random(13), "X").clauses
            )
        marker = map1.clauses[0].name

        def fails(m1, m2):
            return any(clause.name == marker for clause in m1.clauses)

        shrunk1, shrunk2 = _shrink_route_map_pair(map1, map2, fails)
        assert [clause.name for clause in shrunk1.clauses] == [marker]
        assert shrunk2.clauses == ()


class TestFleetHarness:
    @pytest.mark.parametrize(
        "name", ["fleet", "symmetry", "near-symmetry", "service"]
    )
    def test_dropped_report_is_caught_and_shrunk(self, monkeypatch, name):
        row = driver._FLEET_ROWS[name]

        def dropping(env, devices):
            report = row.run_a(env, devices)
            del report["reports"][sorted(report["reports"])[0]]
            return report

        monkeypatch.setitem(
            driver._FLEET_ROWS, name, dataclasses.replace(row, run_a=dropping)
        )
        result = run_selfcheck(seed=0, pairs=1, generators=[name])
        (failure,) = result.failures
        assert failure.generator == name
        assert failure.check == row.check
        assert failure.detail.endswith("(fields: reports)")
        assert failure.reproducer.startswith("fleet of 2: ")
        assert len(failure.reproducer.splitlines()[0].split(", ")) == 2


class TestWriterCheck:
    def test_pinned_seed_counts_the_check(self):
        result = run_selfcheck(seed=0, pairs=2, generators=["fleet", "symmetry"])
        assert result.passed, result.render()
        # Both reports of each fleet case.
        assert result.writer_checks == 4
        assert "writer-vs-json:      4" in result.render()

    @pytest.mark.parametrize("name", ["fleet", "near-symmetry"])
    def test_writer_divergence_is_caught_and_shrunk(self, monkeypatch, name):
        def drifting(value):
            return json.dumps(value, indent=2).replace('"matrix": [', '"matrix":[')

        monkeypatch.setattr(driver, "dumps", drifting)
        result = run_selfcheck(seed=0, pairs=1, generators=[name])
        (failure,) = result.failures
        assert failure.check == "writer-vs-json"
        assert failure.detail.startswith("writer-vs-json: ")
        assert failure.reproducer.startswith("fleet of 2: ")


class TestComponentHarness:
    @pytest.mark.parametrize("name", ["backend", "localize"])
    def test_divergence_is_caught_and_shrunk(self, monkeypatch, name):
        row = driver._COMPONENT_ROWS[name]

        def diverging(kind, component1, component2):
            rules = component1.lines if kind == "acl" else component1.clauses
            return "injected divergence" if rules else None

        monkeypatch.setitem(
            driver._COMPONENT_ROWS,
            name,
            dataclasses.replace(row, mismatch=diverging),
        )
        # Seed 0 generates a route-map pair, seed 2 an ACL pair; each
        # shrinks to one rule of the first component and none of the
        # second.
        for seed, rule_prefix in ((0, "  clause-"), (2, "  ")):
            result = run_selfcheck(seed=seed, pairs=1, generators=[name])
            (failure,) = result.failures
            assert failure.generator == name
            assert failure.check == row.check
            assert failure.detail == "injected divergence"
            rules = [
                line
                for line in failure.reproducer.splitlines()
                if line.startswith(rule_prefix)
            ]
            assert len(rules) == 1, failure.reproducer


class TestEditLocalCheck:
    def test_dropped_relevant_line_is_caught_and_shrunk(self, monkeypatch):
        """A restriction that skips one line overlapping the edit region
        must fail ``acl-local-vs-full`` with a shrunk reproducer."""
        from repro.core import semantic_diff

        edit_region = semantic_diff._edit_region

        def dropping(acl1, acl2):
            region = edit_region(acl1, acl2)
            if region is None or not region[1]:
                return region
            unaligned, relevant1, relevant2 = region
            return unaligned, relevant1[1:], relevant2

        monkeypatch.setattr(semantic_diff, "_edit_region", dropping)
        result = run_selfcheck(seed=0, pairs=10, generators=["acl"])
        assert result.failures, result.render()
        for failure in result.failures:
            assert failure.generator == "acl"
            assert failure.check == "acl-local-vs-full"
            assert "line pairs missing" in failure.detail
            rules = [
                line
                for line in failure.reproducer.splitlines()
                if line.startswith("  ")
            ]
            # Generated pairs have at least 6 rules per side.
            assert 0 < len(rules) < 12, failure.reproducer

    def test_pinned_seed_counts_the_check(self):
        result = run_selfcheck(seed=0, pairs=10, generators=["acl"])
        assert result.passed, result.render()
        assert result.local_diffs == 10
        assert "local-vs-full diffs: 10" in result.render()


class TestCliSelfcheck:
    def test_exit_zero_on_pass(self, capsys):
        exit_code = main(["selfcheck", "--seed", "0", "--pairs", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "selfcheck PASSED" in captured.out

    def test_progress_flag(self, capsys):
        exit_code = main(
            ["selfcheck", "--seed", "0", "--pairs", "3", "--progress"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "selfcheck 3/3 pairs" in captured.err
