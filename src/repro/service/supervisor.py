"""Job execution under supervision: per-pair isolation + error classes.

The supervisor is the bridge between a queued job payload (config
texts + options) and the analysis pipeline.  One job = parse every
config (through the tenant's cache namespace) and run
:func:`~repro.core.fleet.compare_fleet` with a
:class:`~repro.core.memo.DiffMemo` in front, so a warm re-push only
analyzes changed pairs.

A failing pair does not fail its job.  :mod:`repro.core.parallel` runs
the matrix one pair at a time on the job's thread and turns a pair
whose analysis raises (on its retry too) into a ``failed_pairs`` entry
of the report; the job succeeds with the surviving pairs.  The job's
``timeout`` and ``node_limit`` options become each pair's BDD time and
node budgets, so a pathological pair degrades into a budget-aborted
result instead of holding the thread.

Error classification mirrors the CLI exit-code contract:
:class:`~repro.model.types.ConfigError` / :class:`ValueError` /
:class:`RuntimeError` from the pipeline are *permanent* (a retry
cannot fix a malformed payload or duplicate hostnames); anything else
is transient and eligible for retry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .. import perf
from ..cache import ArtifactCache
from ..core import DiffMemo, compare_fleet, fleet_report_to_dict
from ..model.types import ConfigError
from ..parsers import StanzaMemo, parse_config

__all__ = ["Supervisor", "JobError"]


class JobError(Exception):
    """A job failed; ``permanent`` decides retry vs. failed."""

    def __init__(self, message: str, permanent: bool) -> None:
        super().__init__(message)
        self.permanent = permanent


class Supervisor:
    """Executes job payloads through the pipeline, supervised."""

    def __init__(
        self,
        cache: Optional[ArtifactCache],
        timeout: Optional[float] = None,
        node_limit: Optional[int] = None,
    ) -> None:
        self.cache = cache
        self.timeout = timeout
        self.node_limit = node_limit

    # -- payload -------------------------------------------------------------
    @staticmethod
    def validate_payload(payload: Dict) -> List[Tuple[str, str]]:
        """``(filename, text)`` per config, or :class:`JobError`.

        Validation failures are *permanent* — the same payload will
        fail the same way on every retry.
        """
        configs = payload.get("configs")
        if not isinstance(configs, list) or len(configs) < 2:
            raise JobError(
                "payload must carry a 'configs' list of at least two"
                " {name, text} objects",
                permanent=True,
            )
        pairs: List[Tuple[str, str]] = []
        for position, config in enumerate(configs):
            if not isinstance(config, dict):
                raise JobError(
                    f"configs[{position}] is not an object", permanent=True
                )
            text = config.get("text")
            if not isinstance(text, str) or not text.strip():
                raise JobError(
                    f"configs[{position}] has no config text", permanent=True
                )
            name = config.get("name")
            if not isinstance(name, str) or not name:
                name = f"config-{position}"
            pairs.append((name, text))
        return pairs

    # -- execution -----------------------------------------------------------
    def run_job(self, payload: Dict, tenant_cache: Optional[ArtifactCache]) -> Dict:
        """Run one fleet analysis; blocking (call from a job thread).

        Returns the job result document: the timing-free serialized
        fleet report plus its notes, symmetry-compression statistics
        and cache/memo deltas (for warm-push verification).  Raises
        :class:`JobError` with a permanence classification on failure.
        The retired ``"workers"``, ``"set_backend"`` and ``"compress"``
        keys are ignored: the job always runs the default fleet path.
        """
        configs = self.validate_payload(payload)
        cache = tenant_cache if tenant_cache is not None else self.cache
        counter_base = {
            name: perf.REGISTRY.counters.get(name, 0)
            for name in (
                "cache.device.hits",
                "cache.diff.hits",
                "memo.hits",
                "memo.misses",
                "memo.localization_replays",
                "header_localize.dag_cache_hits",
            )
        }
        try:
            memo = StanzaMemo()
            devices = [
                self._parse(name, text, payload, cache, memo)
                for name, text in configs
            ]
            report = compare_fleet(
                devices,
                reference=payload.get("reference"),
                exhaustive_communities=bool(
                    payload.get("exhaustive_communities", False)
                ),
                timeout=self._float_option(payload, "timeout", self.timeout),
                node_limit=self._int_option(
                    payload, "node_limit", self.node_limit
                ),
                memo=DiffMemo(cache) if cache is not None else None,
            )
        except JobError:
            raise
        except ConfigError as exc:
            raise JobError(f"parse error: {exc}", permanent=True)
        except (ValueError, RuntimeError) as exc:
            # Duplicate hostnames / bad reference / all pairs failed:
            # deterministic for this payload — retry cannot help.
            raise JobError(str(exc), permanent=True)
        except Exception as exc:  # noqa: BLE001 - transient by default
            raise JobError(
                f"internal error ({type(exc).__name__}: {exc})",
                permanent=False,
            )
        deltas = {
            name: perf.REGISTRY.counters.get(name, 0) - base
            for name, base in counter_base.items()
        }
        # Symmetry-compression counters: how much of the matrix phase
        # near-symmetry planning let this job skip.  Kept
        # out of the serialized report (like timings) and surfaced here
        # instead, alongside the cache deltas.
        if report.symmetry is not None:
            symmetry = {
                "compressed": True,
                "devices": report.symmetry.devices,
                "classes": report.symmetry.classes,
                "matrix_pairs": report.symmetry.total_pairs,
                "analyzed_pairs": report.symmetry.analyzed_pairs,
                "expanded_pairs": report.symmetry.expanded_pairs,
                "fallback_pairs": report.symmetry.fallback_pairs,
            }
            perf.add(
                "service.jobs.pairs_expanded", report.symmetry.expanded_pairs
            )
            if report.symmetry.fallback_pairs:
                perf.add(
                    "service.jobs.near_fallback_pairs",
                    report.symmetry.fallback_pairs,
                )
        else:
            symmetry = {"compressed": False}
        return {
            "report": fleet_report_to_dict(report),
            "notes": list(report.notes),
            "symmetry": symmetry,
            "cache": {
                "device_hits": deltas["cache.device.hits"],
                "diff_hits": deltas["cache.diff.hits"],
                "memo_hits": deltas["memo.hits"],
                "memo_misses": deltas["memo.misses"],
                "localization_replays": deltas["memo.localization_replays"],
                "dag_cache_hits": deltas["header_localize.dag_cache_hits"],
            },
        }

    def _parse(
        self,
        name: str,
        text: str,
        payload: Dict,
        cache: Optional[ArtifactCache],
        memo: StanzaMemo,
    ):
        """Parse one job config, sharing ``memo`` with the job's others."""
        dialect = payload.get("dialect") or "auto"
        strict = bool(payload.get("strict", False))
        if cache is not None:
            device = cache.get_device(text, name, dialect, strict)
            if device is not None:
                return device
        device = parse_config(
            text, filename=name, dialect=dialect, strict=strict, memo=memo
        )
        if cache is not None:
            cache.put_device(text, name, dialect, strict, device)
        return device

    @staticmethod
    def _float_option(payload: Dict, key: str, default):
        value = payload.get(key)
        if value is None:
            return default
        try:
            return float(value)
        except (TypeError, ValueError):
            raise JobError(f"option {key!r} is not a number", permanent=True)

    @staticmethod
    def _int_option(payload: Dict, key: str, default):
        value = payload.get(key)
        if value is None:
            return default
        try:
            return int(value)
        except (TypeError, ValueError):
            raise JobError(f"option {key!r} is not an integer", permanent=True)
