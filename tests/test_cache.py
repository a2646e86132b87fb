"""Tests for the persistent content-addressed artifact cache."""

import json

import pytest

from repro import cache as cache_module
from repro import perf
from repro.cache import (
    CACHE_DIR_ENV,
    ArtifactCache,
    default_cache_dir,
    resolve_cache_dir,
)
from repro.core import acl_key
from repro.parsers import parse_cisco
from repro.workloads.figure1 import CISCO_FIGURE1


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


def _device(hostname="r1"):
    text = CISCO_FIGURE1.replace("hostname cisco_router", f"hostname {hostname}")
    return text, parse_cisco(text, f"{hostname}.cfg")


class TestResolveCacheDir:
    def test_explicit_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir(str(tmp_path / "cli")) == tmp_path / "cli"

    def test_environment_beats_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir(None) == tmp_path / "env"

    def test_default_is_cache_home(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert resolve_cache_dir(None) == tmp_path / "xdg" / "campion"
        assert default_cache_dir() == tmp_path / "xdg" / "campion"


class TestDeviceStore:
    def test_roundtrip(self, cache):
        text, device = _device()
        assert cache.get_device(text, "r1.cfg", "auto", False) is None
        cache.put_device(text, "r1.cfg", "auto", False, device)
        cached = cache.get_device(text, "r1.cfg", "auto", False)
        assert cached is not None
        assert cached.hostname == device.hostname
        # Fingerprints were materialized before pickling and ride along.
        assert "_fingerprints" in cached.__dict__
        assert cached.fingerprints == device.fingerprints

    def test_key_covers_text_and_options(self, cache):
        text, device = _device()
        cache.put_device(text, "r1.cfg", "auto", False, device)
        assert cache.get_device(text + "\n!", "r1.cfg", "auto", False) is None
        assert cache.get_device(text, "r2.cfg", "auto", False) is None
        assert cache.get_device(text, "r1.cfg", "cisco", False) is None
        assert cache.get_device(text, "r1.cfg", "auto", True) is None

    def test_corrupt_entry_degrades_to_miss(self, cache):
        text, device = _device()
        cache.put_device(text, "r1.cfg", "auto", False, device)
        (entry,) = list(cache._entries("devices"))
        entry.write_bytes(b"not a pickle")
        perf.reset()
        assert cache.get_device(text, "r1.cfg", "auto", False) is None
        counters = perf.snapshot()["counters"]
        assert counters.get("cache.errors", 0) == 1
        # The corrupt file was removed; the store is empty again.
        assert list(cache._entries("devices")) == []


class TestDiffStore:
    KEY = acl_key("fp-a", "fp-b")
    ENTRY = {"count": 2, "semantic": [{"kind": "ACLs"}], "structural": []}

    def test_roundtrip(self, cache):
        assert cache.get_diff(self.KEY) is None
        cache.put_diff(self.KEY, self.ENTRY)
        assert cache.get_diff(self.KEY) == self.ENTRY

    def test_entries_are_json_with_schema_stamps(self, cache):
        cache.put_diff(self.KEY, self.ENTRY)
        (entry,) = list(cache._entries("diffs"))
        payload = json.loads(entry.read_text())
        assert payload["cache_schema"] == cache_module.CACHE_SCHEMA_VERSION
        assert payload["entry"] == self.ENTRY

    def test_stale_schema_rejected_and_deleted(self, cache):
        cache.put_diff(self.KEY, self.ENTRY)
        (entry,) = list(cache._entries("diffs"))
        payload = json.loads(entry.read_text())
        payload["cache_schema"] = -1
        entry.write_text(json.dumps(payload))
        perf.reset()
        assert cache.get_diff(self.KEY) is None
        assert perf.snapshot()["counters"].get("cache.stale", 0) == 1
        assert list(cache._entries("diffs")) == []

    def test_schema_bump_changes_key_digest(self, cache, monkeypatch):
        cache.put_diff(self.KEY, self.ENTRY)
        monkeypatch.setattr(
            cache_module,
            "CACHE_SCHEMA_VERSION",
            cache_module.CACHE_SCHEMA_VERSION + 1,
        )
        # The digest is derived from the schema stamp, so old entries
        # are simply unreachable after a bump.
        assert cache.get_diff(self.KEY) is None

    def test_eviction_bounds_the_store(self, tmp_path):
        small = ArtifactCache(tmp_path / "small", max_entries=3)
        perf.reset()
        for index in range(6):
            small.put_diff(acl_key(f"fp{index}", "x"), {"count": 0})
        assert len(list(small._entries("diffs"))) == 3
        assert perf.snapshot()["counters"].get("cache.evictions", 0) == 3

    def test_puts_below_the_bound_list_the_store_once(
        self, tmp_path, monkeypatch
    ):
        store = ArtifactCache(tmp_path / "store", max_entries=50)
        listings = []
        real = ArtifactCache._entries

        def counting(self, name):
            listings.append(name)
            return real(self, name)

        monkeypatch.setattr(ArtifactCache, "_entries", counting)
        for index in range(40):
            store.put_diff(acl_key(f"fp{index}", "x"), {"count": 0})
        # Rewriting an existing entry adds nothing to count.
        store.put_diff(acl_key("fp0", "x"), {"count": 0})
        assert listings == ["diffs"]
        monkeypatch.undo()
        assert len(list(store._entries("diffs"))) == 40

    def test_store_over_the_bound_is_trimmed_to_max_entries(self, tmp_path):
        root = tmp_path / "store"
        filler = ArtifactCache(root)
        for index in range(8):
            filler.put_diff(acl_key(f"old{index}", "x"), {"count": 0})
        # A fresh instance over an existing oversized store trims it on
        # its first write, then keeps it at the bound.
        small = ArtifactCache(root, max_entries=5)
        small.put_diff(acl_key("new0", "x"), {"count": 0})
        assert len(list(small._entries("diffs"))) == 5
        for index in range(1, 4):
            small.put_diff(acl_key(f"new{index}", "x"), {"count": 0})
        assert len(list(small._entries("diffs"))) == 5


class TestMaintenance:
    def test_stats_and_clear(self, cache):
        text, device = _device()
        cache.put_device(text, "r1.cfg", "auto", False, device)
        cache.put_diff(TestDiffStore.KEY, TestDiffStore.ENTRY)
        stats = cache.stats()
        assert stats["stores"]["devices"]["entries"] == 1
        assert stats["stores"]["diffs"]["entries"] == 1
        assert stats["stores"]["devices"]["bytes"] > 0
        assert cache.clear() == 2
        stats = cache.stats()
        assert stats["stores"]["devices"]["entries"] == 0
        assert stats["stores"]["diffs"]["entries"] == 0

    def test_stats_on_missing_root(self, tmp_path):
        stats = ArtifactCache(tmp_path / "nothing-here").stats()
        assert stats["stores"]["devices"] == {"entries": 0, "bytes": 0}


class TestCliCache:
    @pytest.fixture
    def fleet_files(self, tmp_path):
        paths = []
        for name in ("a", "b", "c"):
            text = CISCO_FIGURE1.replace(
                "hostname cisco_router", f"hostname {name}"
            )
            path = tmp_path / f"{name}.cfg"
            path.write_text(text)
            paths.append(str(path))
        return paths

    def _run(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_warm_fleet_run_is_identical_and_hits(
        self, fleet_files, tmp_path, capsys
    ):
        base = ["--cache-dir", str(tmp_path / "cache")]
        cold_code, cold_out, cold_err = self._run(
            base + ["fleet", "--json"] + fleet_files, capsys
        )
        warm_code, warm_out, warm_err = self._run(
            base + ["fleet", "--json"] + fleet_files, capsys
        )
        assert cold_code == warm_code == 0
        assert cold_out == warm_out
        assert "campion: cache: hits=0" in cold_err
        warm_line = [
            line for line in warm_err.splitlines() if "campion: cache:" in line
        ][0]
        assert "misses=0" in warm_line
        hits = int(warm_line.split("hits=")[1].split()[0])
        assert hits > 0

    def test_no_cache_flag_disables_everything(
        self, fleet_files, tmp_path, capsys
    ):
        code, out, err = self._run(
            ["--no-cache", "fleet", "--json"] + fleet_files, capsys
        )
        assert code == 0
        assert "campion: cache:" not in err

    def test_cache_stats_and_clear_subcommand(
        self, fleet_files, tmp_path, capsys
    ):
        base = ["--cache-dir", str(tmp_path / "cache")]
        self._run(base + ["parse", fleet_files[0]], capsys)
        code, out, _ = self._run(base + ["cache", "stats"], capsys)
        assert code == 0
        assert str(tmp_path / "cache") in out
        assert "devices: 1 entry" in out
        code, out, _ = self._run(base + ["cache", "clear"], capsys)
        assert code == 0
        assert "removed 1 artifact" in out
        code, out, _ = self._run(base + ["cache", "stats"], capsys)
        assert "devices: 0 entries" in out

    def test_compare_reuses_cached_parses(self, fleet_files, tmp_path, capsys):
        base = ["--cache-dir", str(tmp_path / "cache")]
        self._run(base + ["compare", fleet_files[0], fleet_files[1]], capsys)
        _, _, err = self._run(
            base + ["compare", fleet_files[0], fleet_files[1]], capsys
        )
        warm_line = [
            line for line in err.splitlines() if "campion: cache:" in line
        ][0]
        assert "misses=0" in warm_line


class TestQuarantine:
    def test_corrupt_entry_moved_to_quarantine(self, cache, capsys):
        text, device = _device()
        cache.put_device(text, "r1.cfg", "auto", False, device)
        (entry,) = list(cache._entries("devices"))
        entry.write_bytes(b"not a pickle")
        perf.reset()
        assert cache.get_device(text, "r1.cfg", "auto", False) is None
        counters = perf.snapshot()["counters"]
        assert counters.get("cache.quarantined", 0) == 1
        quarantined = list(cache._quarantine_entries())
        assert [path.name for path in quarantined] == [entry.name]
        assert quarantined[0].read_bytes() == b"not a pickle"
        assert "quarantined corrupt entry" in capsys.readouterr().err

    def test_stats_and_clear_cover_quarantine(self, cache):
        text, device = _device()
        cache.put_device(text, "r1.cfg", "auto", False, device)
        (entry,) = list(cache._entries("devices"))
        entry.write_bytes(b"garbage")
        cache.get_device(text, "r1.cfg", "auto", False)
        stats = cache.stats()
        assert stats["stores"]["quarantine"]["entries"] == 1
        assert cache.clear() == 1
        assert list(cache._quarantine_entries()) == []

    def test_stale_schema_is_deleted_not_quarantined(self, cache, monkeypatch):
        cache.put_diff(TestDiffStore.KEY, TestDiffStore.ENTRY)
        monkeypatch.setattr(
            cache_module, "_schema_stamp", lambda: (999, 999, 999)
        )
        perf.reset()
        assert cache.get_diff(TestDiffStore.KEY) is None
        assert list(cache._quarantine_entries()) == []


class TestLocking:
    def test_write_takes_the_advisory_lock(self, cache):
        text, device = _device()
        cache.put_device(text, "r1.cfg", "auto", False, device)
        assert (cache.root / ".lock").exists()

    def test_concurrent_writers_keep_entries_readable(self, cache):
        import threading

        text, device = _device()

        def hammer(index):
            for _ in range(5):
                cache.put_device(text, f"r{index}.cfg", "auto", False, device)

        threads = [
            threading.Thread(target=hammer, args=(index,)) for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index in range(4):
            cached = cache.get_device(text, f"r{index}.cfg", "auto", False)
            assert cached is not None and cached.hostname == device.hostname

    def test_lock_degrades_to_noop_without_fcntl(self, cache, monkeypatch):
        monkeypatch.setattr(cache_module, "fcntl", None)
        text, device = _device()
        cache.put_device(text, "r1.cfg", "auto", False, device)
        assert cache.get_device(text, "r1.cfg", "auto", False) is not None


class TestTenantNamespaces:
    def test_namespaces_are_isolated(self, cache):
        text, device = _device()
        alpha = cache.namespace("alpha")
        beta = cache.namespace("beta")
        alpha.put_device(text, "r1.cfg", "auto", False, device)
        assert alpha.get_device(text, "r1.cfg", "auto", False) is not None
        assert beta.get_device(text, "r1.cfg", "auto", False) is None
        assert cache.get_device(text, "r1.cfg", "auto", False) is None

    def test_namespace_roots_stay_under_tenants_dir(self, cache):
        assert cache.namespace("alpha").root == cache.root / "tenants" / "alpha"

    def test_hostile_tenant_names_are_sanitized(self, cache):
        for name in ("", ".", "..", "../../etc", "a/b\\c", "week nd"):
            namespaced = cache.namespace(name)
            assert cache.root / "tenants" in namespaced.root.parents

    def test_max_entries_carries_into_namespace(self, tmp_path):
        parent = ArtifactCache(tmp_path / "cache", max_entries=7)
        assert parent.namespace("t").max_entries == 7
