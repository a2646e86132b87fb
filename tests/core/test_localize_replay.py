"""Tests for the atoms-backed localization algebra and memo replay.

Covers the PR-10 tentpole invariants: the bitset and BDD localization
paths agree (results and straddle errors alike), the process-wide DAG
cache actually hits, and collect-mode memo replay reproduces live
reports byte-for-byte — including across clone devices whose spans sit
in differently-named files.
"""

import copy
import json
import pickle

import pytest

from repro import perf
from repro.core import (
    DiffMemo,
    HeaderLocalizeError,
    cached_dag,
    config_diff,
    dag_cache_clear,
    header_localize,
    prefix_range_algebra,
    report_to_dict,
    semantic_difference_to_dict,
)
from repro.core.memo import semantic_entry
from repro.core.replay import replay_semantic_differences
from repro.core.results import ComponentKind
from repro.encoding import RouteSpace
from repro.model import PrefixRange
from repro.workloads.datacenter import templated_clos_fleet


def _range(text):
    return PrefixRange.parse(text)


@pytest.fixture()
def space():
    return RouteSpace([])


def _counter(name):
    return perf.REGISTRY.counters.get(name, 0)


class TestBackendEquivalence:
    """BDD-backed and bitset-backed localization agree exactly."""

    A = _range("10.0.0.0/8 : 8-32")
    B = _range("10.0.0.0/9 : 9-32")
    C = _range("10.128.0.0/9 : 9-32")
    D = _range("10.0.0.0/9 : 16-24")
    F = _range("10.128.0.0/10 : 10-28")
    G = _range("10.128.0.0/12 : 12-20")
    RANGES = [A, B, C, D, F, G]

    def _affected(self, space):
        to_pred = space.range_pred
        return (to_pred(self.B) - to_pred(self.D)) | (
            to_pred(self.C) - (to_pred(self.F) - to_pred(self.G))
        )

    def test_figure3_terms_identical(self, space):
        results = {}
        for backend in ("bdd", "atoms"):
            localization = header_localize(
                self._affected(space),
                self.RANGES,
                prefix_range_algebra(),
                space.range_pred,
                backend=backend,
            )
            results[backend] = localization
        assert results["bdd"].terms == results["atoms"].terms
        assert results["bdd"].included == results["atoms"].included
        assert results["bdd"].excluded == results["atoms"].excluded

    def test_straddle_same_error_both_backends(self, space):
        affected = space.range_pred(_range("10.9.0.0/16 : 16-32"))
        vocabulary = [_range("10.0.0.0/8 : 8-32")]
        messages = {}
        for backend in ("bdd", "atoms"):
            with pytest.raises(HeaderLocalizeError) as excinfo:
                header_localize(
                    affected,
                    vocabulary,
                    prefix_range_algebra(),
                    space.range_pred,
                    backend=backend,
                )
            messages[backend] = str(excinfo.value)
        assert messages["bdd"] == messages["atoms"]

    def test_leaf_straddle_same_error_both_backends(self, space):
        # The affected set cuts strictly inside a leaf range, hitting
        # the leaf-specific straddle message on both paths.
        leaf = _range("10.0.0.0/8 : 8-32")
        inner = space.range_pred(_range("10.9.0.0/16 : 16-32"))
        affected = space.range_pred(leaf) - inner
        messages = {}
        for backend in ("bdd", "atoms"):
            with pytest.raises(HeaderLocalizeError) as excinfo:
                header_localize(
                    affected,
                    [leaf],
                    prefix_range_algebra(),
                    space.range_pred,
                    backend=backend,
                )
            messages[backend] = str(excinfo.value)
        assert messages["bdd"] == messages["atoms"]


class TestDagCache:
    def test_same_vocabulary_hits(self):
        dag_cache_clear()
        algebra = prefix_range_algebra()
        ranges = [_range("10.0.0.0/8 : 8-32"), _range("10.0.0.0/9 : 9-32")]
        before_hits = _counter("header_localize.dag_cache_hits")
        first = cached_dag(ranges, algebra)
        second = cached_dag(list(reversed(ranges)), algebra)
        assert second is first  # shared, order-independent
        assert _counter("header_localize.dag_cache_hits") == before_hits + 1

    def test_subset_vocabulary_shares_closure_dag(self):
        dag_cache_clear()
        algebra = prefix_range_algebra()
        outer = _range("10.0.0.0/8 : 8-32")
        inner = _range("10.0.0.0/9 : 9-32")
        first = cached_dag([outer, inner], algebra)
        # The universe joins every closure, so a vocabulary whose
        # closure coincides shares the same DAG object.
        second = cached_dag([inner, outer, algebra.universe], algebra)
        assert second is first


class TestMemoReplay:
    def _fleet(self):
        devices, _ = templated_clos_fleet(
            count=4, roles=2, rule_count=8, seed=11, vendors=1, uplinks=1
        )
        return devices

    def test_cold_equals_warm_report_bytes(self):
        devices = self._fleet()
        memo = DiffMemo()
        cold = report_to_dict(config_diff(devices[0], devices[1], memo=memo))
        before = _counter("memo.localization_replays")
        warm = report_to_dict(config_diff(devices[0], devices[1], memo=memo))
        assert _counter("memo.localization_replays") > before
        assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)

    def test_replay_rewrites_clone_filenames(self):
        # devices 2 and 3 are role clones of devices 0 and 1: identical
        # component content (same fingerprints, same line offsets) in
        # differently-named files.  The replayed report must match a
        # memo-less live run on the clones exactly — including the
        # clones' own filenames in every span.
        devices = self._fleet()
        memo = DiffMemo()
        config_diff(devices[0], devices[1], memo=memo)
        before = _counter("memo.localization_replays")
        replayed = report_to_dict(config_diff(devices[2], devices[3], memo=memo))
        assert _counter("memo.localization_replays") > before
        live = report_to_dict(config_diff(devices[2], devices[3]))
        assert json.dumps(replayed, sort_keys=True) == json.dumps(
            live, sort_keys=True
        )
        spans = [
            entry["text"][side]
            for entry in replayed["semantic"]
            for side in ("router1", "router2")
            if entry["text"][side] is not None
        ]
        assert spans, "expected localized differences with spans"
        filenames = {span["file"] for span in spans}
        assert filenames <= {devices[2].filename, devices[3].filename}

    def test_replay_round_trips_serialization(self):
        devices = self._fleet()
        memo = DiffMemo()
        config_diff(devices[0], devices[1], memo=memo)
        entries = [
            entry
            for entry in memo._entries.values()
            if entry.get("localized") and entry["count"] > 0
        ]
        assert entries, "expected localized memo entries"
        for entry in entries:
            replayed = replay_semantic_differences(entry, devices[0], devices[1])
            # the stored form serializes without a rebuild ...
            assert [
                semantic_difference_to_dict(difference) for difference in replayed
            ] == entry["semantic"]
            assert all(difference._live is None for difference in replayed)
            # ... to what the rebuilt difference serializes to
            assert [
                semantic_difference_to_dict(difference.materialize())
                for difference in replayed
            ] == entry["semantic"]

    def test_replayed_dicts_are_fresh_plain_data(self):
        devices = self._fleet()
        memo = DiffMemo()
        config_diff(devices[0], devices[1], memo=memo)
        entry = next(
            entry
            for entry in memo._entries.values()
            if entry.get("localized") and entry["count"] > 0
        )
        stored = json.dumps(entry, sort_keys=True)
        (difference, *_) = replay_semantic_differences(entry, devices[2], devices[3])
        data = semantic_difference_to_dict(difference)
        spans = [span for span in data["text"].values() if span is not None]
        assert spans
        assert {span["file"] for span in spans} <= {
            devices[2].filename,
            devices[3].filename,
        }
        for span in spans:
            span["text"].append("edited")
            span["file"] = "edited.cfg"
        data["policy"]["router1"] = "edited"
        assert json.dumps(entry, sort_keys=True) == stored
        # it, its copies and its pickles are plain dicts
        assert type(data) is dict
        assert type(copy.deepcopy(data)) is dict
        assert type(pickle.loads(pickle.dumps(data))) is dict
        assert copy.deepcopy(data) == data

    def test_warm_replay_stores_nothing(self):
        devices = self._fleet()
        memo = DiffMemo()
        config_diff(devices[0], devices[1], memo=memo)
        entries = dict(memo._entries)
        writes = _counter("memo.stores") + _counter("memo.upgrades")
        config_diff(devices[0], devices[1], memo=memo)
        assert _counter("memo.stores") + _counter("memo.upgrades") == writes
        assert memo._entries == entries

    def test_count_entry_upgraded_after_collect(self):
        from repro.core.config_diff import config_diff_summary

        devices = self._fleet()
        memo = DiffMemo()
        # Count mode stores entries without localization; the first
        # collect-mode walk recomputes live and upgrades them in place.
        config_diff_summary(devices[0], devices[1], memo=memo)
        count_entries = dict(memo._entries)
        assert count_entries and not any(
            e.get("localized") for e in count_entries.values()
        )
        before = _counter("memo.upgrades")
        config_diff(devices[0], devices[1], memo=memo)
        upgraded = {
            key: entry
            for key, entry in memo._entries.items()
            if entry is not count_entries.get(key)
        }
        assert _counter("memo.upgrades") > before
        assert any(
            e.get("localized") and e["count"] > 0 for e in upgraded.values()
        )

    def test_upgrade_replaces_only_unlocalized(self):
        memo = DiffMemo()
        key = ("acl", "fp1", "fp2")
        plain = semantic_entry(ComponentKind.ACL, [])
        plain["count"] = 1  # pretend a count-mode result
        memo.put(key, plain)
        localized = semantic_entry(
            ComponentKind.ACL, [], provenance="abc", replay={"semantic": []}
        )
        localized["count"] = 1
        memo.upgrade(key, localized)
        assert memo.get(key) is localized
        other = semantic_entry(
            ComponentKind.ACL, [], provenance="def", replay={"semantic": []}
        )
        memo.upgrade(key, other)  # localized entries are never replaced
        assert memo.get(key) is localized

    def test_seeded_count_entry_falls_back_to_live(self):
        devices = self._fleet()
        memo = DiffMemo()
        live = report_to_dict(config_diff(devices[0], devices[1]))
        count = config_diff(devices[0], devices[1]).total_differences()
        # Seed every key the pair would use with count-only entries by
        # running count mode first; collect mode must still produce the
        # full live report (recomputing, then upgrading).
        from repro.core.config_diff import config_diff_summary

        assert config_diff_summary(devices[0], devices[1], memo=memo) == count
        collected = report_to_dict(config_diff(devices[0], devices[1], memo=memo))
        assert json.dumps(collected, sort_keys=True) == json.dumps(
            live, sort_keys=True
        )
