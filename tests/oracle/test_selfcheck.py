"""Tests for the selfcheck driver: determinism, pass on the pinned seed,
shrinking, and the CLI subcommand's exit-code contract."""

import dataclasses
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
