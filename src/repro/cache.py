"""Persistent content-addressed artifact cache (``~/.cache/campion``).

Two stores under one root make repeated CLI invocations incremental:

* ``devices/`` — parsed :class:`~repro.model.device.DeviceConfig`
  objects (pickled, with their component fingerprints already computed),
  keyed by the SHA-256 of the configuration *text* plus filename,
  dialect, and strictness — re-running over an unchanged file skips the
  parser entirely.
* ``diffs/`` — per-component diff entries (JSON, the
  :mod:`repro.core.memo` entry format), keyed by the component
  fingerprint pair — re-running over a mostly-unchanged fleet only
  analyzes changed components.

Every key digest and every stored payload embeds the schema versions
(cache layout, report serialization, fingerprint canonicalization), and
reads validate the payload's stamps: an entry written by an older
schema is rejected as stale — counted under ``cache.stale`` — and
deleted, so a version bump atomically invalidates old artifacts even if
the key format happens to survive.

Writes are atomic (temp file + ``os.replace``) so concurrent processes
— parallel fleet workers write through the parent, but nothing stops
two CLI invocations sharing a cache dir — can never observe a torn
entry; writers and evictors additionally serialize on an ``fcntl``
advisory lock (``<root>/.lock``) so concurrent eviction can't race an
in-flight replace.  Each store is bounded by ``max_entries`` with
mtime-LRU eviction (see :meth:`ArtifactCache._evict` for why the bound
is soft across processes).  Cache failures of any kind (unreadable file,
corrupt pickle, full disk) degrade to a miss or a skipped write — the
cache must never sink an analysis run — and an entry whose *bytes*
fail to load is moved to ``<root>/quarantine/`` (counted under
``cache.quarantined``, noted on stderr) for operator inspection rather
than silently deleted; schema-stale entries are still just deleted.
Hit/miss/eviction counters land in :mod:`repro.perf`; ``campion cache
stats|clear`` exposes the store.  :meth:`ArtifactCache.namespace`
derives a per-tenant cache rooted under ``<root>/tenants/<name>`` for
multi-tenant service deployments.

Like any pickle-based local cache, ``devices/`` is only as trustworthy
as the directory permissions; the default root lives under the user's
own cache home (``$XDG_CACHE_HOME``/``~/.cache``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import pickle
import re
import sys
import tempfile
from typing import Dict, Iterator, Optional, Tuple

try:  # POSIX only; on other platforms locking degrades to a no-op
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

from . import perf
from .core.serialize import SCHEMA_VERSION as SERIALIZE_SCHEMA_VERSION
from .model.device import DeviceConfig
from .model.fingerprint import FINGERPRINT_SCHEMA_VERSION

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CACHE_DIR_ENV",
    "ArtifactCache",
    "default_cache_dir",
    "resolve_cache_dir",
]

#: Bump when the on-disk layout or pickled payload shape changes.
#: v2: diff entries may carry localization-replay fields ("localized",
#: "provenance", "replay") and stats() reports localized entry counts.
#: v3: diff entries keep their insertion key order (v2 sorted keys, so
#: replayed differences printed their fields in a different order).
CACHE_SCHEMA_VERSION = 3

CACHE_DIR_ENV = "CAMPION_CACHE_DIR"

_DEVICES = "devices"
_DIFFS = "diffs"
_QUARANTINE = "quarantine"
_LOCK_FILE = ".lock"
_TENANTS = "tenants"

#: Tenant names are path components; anything else is flattened.
_SAFE_TENANT = re.compile(r"[^A-Za-z0-9._-]+")


def default_cache_dir() -> pathlib.Path:
    """``$XDG_CACHE_HOME/campion`` or ``~/.cache/campion``."""
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "campion"


def resolve_cache_dir(explicit: Optional[str] = None) -> pathlib.Path:
    """Cache root: ``--cache-dir`` wins, else ``$CAMPION_CACHE_DIR``,
    else the platform default."""
    if explicit:
        return pathlib.Path(explicit)
    env = os.environ.get(CACHE_DIR_ENV, "").strip()
    if env:
        return pathlib.Path(env)
    return default_cache_dir()


def _schema_stamp() -> Tuple[int, int, int]:
    # Read at call time so tests can simulate version bumps.
    return (
        CACHE_SCHEMA_VERSION,
        SERIALIZE_SCHEMA_VERSION,
        FINGERPRINT_SCHEMA_VERSION,
    )


class ArtifactCache:
    """Content-addressed store of parsed devices and diff entries."""

    def __init__(
        self,
        root: os.PathLike,
        max_entries: int = 8192,
    ) -> None:
        self.root = pathlib.Path(root)
        self.max_entries = max_entries
        # Entries per store as last counted by this instance (see
        # _evict); a store absent here has not been counted yet.
        self._counts: Dict[str, int] = {}

    def namespace(self, tenant: str) -> "ArtifactCache":
        """A cache rooted under ``<root>/tenants/<tenant>``.

        Tenants sharing one physical cache directory get disjoint
        stores (and disjoint locks), so one tenant's pushes can never
        evict or poison another's artifacts.  The tenant name is
        sanitized to a single path component.
        """
        safe = _SAFE_TENANT.sub("_", tenant.strip())
        if safe in ("", ".", ".."):
            safe = f"_{safe}_"
        return ArtifactCache(
            self.root / _TENANTS / safe, max_entries=self.max_entries
        )

    # -- keys ----------------------------------------------------------------
    def _digest(self, store: str, key_material: str) -> str:
        material = repr((_schema_stamp(), store, key_material))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _path(self, store: str, digest: str, suffix: str) -> pathlib.Path:
        # Two-level sharding keeps directory listings fast at capacity.
        return self.root / store / digest[:2] / f"{digest}{suffix}"

    @staticmethod
    def device_text_key(
        text: str, filename: str, dialect: str, strict: bool
    ) -> str:
        """Key material for one parsed device: text digest + parse options."""
        text_sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return repr((text_sha, filename, dialect, bool(strict)))

    # -- devices -------------------------------------------------------------
    def get_device(
        self, text: str, filename: str, dialect: str, strict: bool
    ) -> Optional[DeviceConfig]:
        """The parsed device for this exact text, or ``None``."""
        digest = self._digest(
            _DEVICES, self.device_text_key(text, filename, dialect, strict)
        )
        path = self._path(_DEVICES, digest, ".pickle")
        payload = self._read_pickle(path)
        if payload is None:
            perf.add("cache.device.misses")
            return None
        if payload.get("schema") != _schema_stamp():
            self._reject_stale(path)
            perf.add("cache.device.misses")
            return None
        device = payload.get("device")
        if not isinstance(device, DeviceConfig):
            self._reject_stale(path)
            perf.add("cache.device.misses")
            return None
        perf.add("cache.device.hits")
        return device

    def put_device(
        self,
        text: str,
        filename: str,
        dialect: str,
        strict: bool,
        device: DeviceConfig,
    ) -> None:
        """Store a parsed device (fingerprints ride along pickled)."""
        device.fingerprints  # ensure the cached property is materialized
        digest = self._digest(
            _DEVICES, self.device_text_key(text, filename, dialect, strict)
        )
        path = self._path(_DEVICES, digest, ".pickle")
        if self._write_atomic(
            path, pickle.dumps({"schema": _schema_stamp(), "device": device})
        ):
            self._evict(_DEVICES)

    # -- diff entries --------------------------------------------------------
    def get_diff(self, key: Tuple) -> Optional[Dict]:
        """The memoized diff entry for a fingerprint key, or ``None``.

        Only counted in :mod:`repro.perf` (``cache.diff.*``); the
        :class:`~repro.core.memo.DiffMemo` in front counts the logical
        memo hit/miss.
        """
        digest = self._digest(_DIFFS, repr(key))
        path = self._path(_DIFFS, digest, ".json")
        payload = self._read_json(path)
        if payload is None:
            perf.add("cache.diff.misses")
            return None
        if (
            payload.get("cache_schema") != CACHE_SCHEMA_VERSION
            or payload.get("serialize_schema") != SERIALIZE_SCHEMA_VERSION
            or payload.get("fingerprint_schema") != FINGERPRINT_SCHEMA_VERSION
            or not isinstance(payload.get("entry"), dict)
        ):
            self._reject_stale(path)
            perf.add("cache.diff.misses")
            return None
        perf.add("cache.diff.hits")
        return payload["entry"]

    def put_diff(self, key: Tuple, entry: Dict) -> None:
        """Store one clean per-component diff entry."""
        digest = self._digest(_DIFFS, repr(key))
        path = self._path(_DIFFS, digest, ".json")
        payload = {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "serialize_schema": SERIALIZE_SCHEMA_VERSION,
            "fingerprint_schema": FINGERPRINT_SCHEMA_VERSION,
            "key": repr(key),
            "entry": entry,
        }
        # Insertion order, not sorted keys: replay rebuilds differences
        # from the stored dicts, so their key order reaches the report.
        if self._write_atomic(path, json.dumps(payload).encode("utf-8")):
            self._evict(_DIFFS)

    # -- maintenance ---------------------------------------------------------
    def stats(self) -> Dict:
        """Entry counts and byte sizes per store (plus the root path)."""
        result: Dict = {"root": str(self.root), "stores": {}}
        for store in (_DEVICES, _DIFFS):
            entries = 0
            size = 0
            localized = 0
            for path in self._entries(store):
                try:
                    size += path.stat().st_size
                except OSError:
                    continue
                entries += 1
                if store == _DIFFS:
                    try:
                        with open(path, "r", encoding="utf-8") as handle:
                            payload = json.load(handle)
                        if payload.get("entry", {}).get("localized"):
                            localized += 1
                    except Exception:  # noqa: BLE001 - stats stay best-effort
                        continue
            result["stores"][store] = {"entries": entries, "bytes": size}
            if store == _DIFFS:
                # Diff entries carrying replayable localization (schema
                # v2) — the warm full-report path's working set.
                result["stores"][store]["localized"] = localized
        entries = 0
        size = 0
        for path in self._quarantine_entries():
            try:
                size += path.stat().st_size
            except OSError:
                continue
            entries += 1
        result["stores"][_QUARANTINE] = {"entries": entries, "bytes": size}
        return result

    def clear(self) -> int:
        """Remove every cached artifact (quarantined ones included);
        returns the number removed."""
        self._counts.clear()
        removed = 0
        for store in (_DEVICES, _DIFFS):
            for path in self._entries(store):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        for path in self._quarantine_entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    # -- internals -----------------------------------------------------------
    def _entries(self, store: str):
        base = self.root / store
        if not base.is_dir():
            return
        for shard in sorted(base.iterdir()):
            if not shard.is_dir():
                continue
            yield from sorted(shard.iterdir())

    def _quarantine_entries(self):
        base = self.root / _QUARANTINE
        if not base.is_dir():
            return
        for path in sorted(base.iterdir()):
            if path.is_file():
                yield path

    def _read_pickle(self, path: pathlib.Path) -> Optional[Dict]:
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:  # noqa: BLE001 - corrupt entry degrades to a miss
            perf.add("cache.errors")
            self._quarantine(path)
            return None
        return payload if isinstance(payload, dict) else None

    def _read_json(self, path: pathlib.Path) -> Optional[Dict]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except Exception:  # noqa: BLE001 - corrupt entry degrades to a miss
            perf.add("cache.errors")
            self._quarantine(path)
            return None
        return payload if isinstance(payload, dict) else None

    @contextlib.contextmanager
    def _lock(self) -> Iterator[None]:
        """Advisory cross-process lock on ``<root>/.lock``.

        Serializes writers and evictors sharing one cache root so a
        concurrent ``_evict`` scan can never race an in-flight
        ``os.replace``.  Readers stay lock-free: an entry is either the
        old bytes, the new bytes, or absent (rename atomicity), and
        every failure mode already degrades to a miss.  Degrades to a
        no-op where ``fcntl`` (or the lock file itself) is unavailable
        — the cache must never sink an analysis run.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            yield
            return
        handle = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            handle = open(self.root / _LOCK_FILE, "a+b")
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        except OSError:
            if handle is not None:
                handle.close()
                handle = None
        try:
            yield
        finally:
            if handle is not None:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
                except OSError:  # pragma: no cover - defensive
                    pass
                handle.close()

    def _write_atomic(self, path: pathlib.Path, data: bytes) -> bool:
        """Write ``data`` to ``path``; ``True`` iff it added a new entry."""
        try:
            with self._lock():
                path.parent.mkdir(parents=True, exist_ok=True)
                added = not path.exists()
                descriptor, temp_name = tempfile.mkstemp(
                    dir=str(path.parent), prefix=".tmp-"
                )
                try:
                    with os.fdopen(descriptor, "wb") as handle:
                        handle.write(data)
                    os.replace(temp_name, path)
                except BaseException:
                    try:
                        os.unlink(temp_name)
                    except OSError:
                        pass
                    raise
                perf.add("cache.writes")
                return added
        except OSError:
            perf.add("cache.errors")  # full disk / permissions: skip write
            return False

    def _reject_stale(self, path: pathlib.Path) -> None:
        perf.add("cache.stale")
        try:
            path.unlink()
        except OSError:
            pass

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move an unreadable entry aside instead of deleting it.

        A truncated pickle or torn JSON is evidence of a fault
        (crashed writer, disk corruption, hostile tampering) that an
        operator may want to inspect — so the bytes survive under
        ``<root>/quarantine/`` rather than vanishing as a silent miss.
        Quarantined files never match a key digest again, so they are
        read at most once more (never — the store path is gone).
        """
        perf.add("cache.quarantined")
        target = self.root / _QUARANTINE / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
            print(
                f"campion cache: quarantined corrupt entry {path.name}"
                f" -> {target}",
                file=sys.stderr,
            )
        except OSError:
            # Can't move it (cross-device, permissions): fall back to
            # the old behaviour and delete so it can't re-trip reads.
            try:
                path.unlink()
            except OSError:
                pass

    def _evict(self, store: str) -> None:
        """Account for one new entry; trim to ``max_entries`` if over.

        Each store is listed once per instance, on its first new entry;
        later new entries bump that count, and the store is listed and
        trimmed (mtime-LRU) again only when the count would pass
        ``max_entries`` — so W writes cost O(W), not O(W²).  The bound is
        therefore soft across processes: entries another process adds
        are not counted here until the next rescan, so a shared store
        can briefly hold more than ``max_entries``.
        """
        count = self._counts.get(store)
        if count is not None and count < self.max_entries:
            self._counts[store] = count + 1
            return
        try:
            with self._lock():
                entries = list(self._entries(store))
                excess = len(entries) - self.max_entries
                if excess > 0:
                    entries.sort(key=lambda p: (p.stat().st_mtime, p.name))
                    for path in entries[:excess]:
                        try:
                            path.unlink()
                            perf.add("cache.evictions")
                        except OSError:
                            continue
                self._counts[store] = len(entries) - max(excess, 0)
        except OSError:
            perf.add("cache.errors")
