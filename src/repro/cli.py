"""The ``campion`` command-line interface.

Subcommands:

* ``campion compare A.cfg B.cfg`` — run ConfigDiff on two configuration
  files (dialects auto-detected) and print the localization report.
* ``campion parse A.cfg`` — parse one file and dump a model summary,
  useful for checking feature coverage before comparing.
* ``campion baseline A.cfg B.cfg`` — run the Minesweeper-style
  monolithic check instead (single counterexample, no localization),
  for side-by-side comparison of the two interfaces.
* ``campion selfcheck`` — run the differential-testing oracle
  (``repro.oracle``) on seeded generated workloads; any failure prints
  a minimal reproducer with its case seed.
* ``campion cache stats|clear`` — inspect or clear the persistent
  artifact cache; ``parse``/``compare``/``fleet``/``selfcheck`` use it
  by default (``--cache-dir`` overrides the root, ``--no-cache``
  disables it) and print a ``campion: cache: hits=… misses=…`` summary
  line on stderr.
* ``campion serve`` — run the always-on analysis service
  (``repro.service``): an HTTP-JSON job API over the same pipeline
  with a durable journaled queue, retries, backpressure, and graceful
  SIGTERM/SIGINT drain (exit 0 after a clean drain).

Exit codes form a contract for scripting and CI:

* ``0`` — configurations are behaviorally equivalent (full coverage)
* ``1`` — differences found
* ``2`` — usage or parse error (bad flags, unreadable/empty file,
  strict-mode parse failure, duplicate fleet hostnames)
* ``3`` — partial or degraded analysis: the verdict holds only for the
  analyzed components (lenient parsing skipped stanzas, a resource
  budget aborted a component, or fleet pairs failed)

Errors print as clean one-line messages on stderr — never tracebacks;
an unexpected internal error is reported the same way with a request to
file it.
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import sys
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional

from . import perf
from .cache import ArtifactCache, resolve_cache_dir
from .core.config_diff import config_diff
from .core.fleet import compare_fleet
from .core.memo import DiffMemo
from .core.serialize import fleet_report_to_dict, report_to_json, write_json
from .model.device import DeviceConfig
from .model.types import ConfigError
# ``load_config`` stays importable from here: the e2e benchmark's tracer
# (benchmarks/e2e/traced_cli.py) wraps ``repro.cli.load_config`` and
# ``repro.cli.parse_config``.  Neither imports a vendor parser until a
# configuration has to be parsed.
from .parsers.loader import load_config, parse_config  # noqa: F401

__all__ = ["main"]

EXIT_EQUIVALENT = 0
EXIT_DIFFERENCES = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3


def _fail(message: str) -> int:
    print(f"campion: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _node_limit(text: str) -> int:
    """``--node-limit``: an integer budget that covers the two terminals."""
    from .core.parallel import resolve_node_limit

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    try:
        return resolve_node_limit(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be at least 2 (the BDD terminals), got {value}"
        ) from None


def _seconds(text: str) -> float:
    """``--timeout``: a positive number of seconds."""
    from .core.parallel import resolve_timeout

    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    try:
        return resolve_timeout(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}") from None


#: Counters summarized on stderr after cache-enabled commands.
_CACHE_COUNTERS = (
    "cache.device.hits",
    "cache.device.misses",
    "cache.diff.hits",
    "cache.diff.misses",
    "memo.localization_replays",
    "header_localize.dag_cache_hits",
)


def _open_cache(args: argparse.Namespace):
    """The persistent artifact cache for this invocation (or ``None``
    under ``--no-cache``), plus a counter baseline for the summary."""
    if getattr(args, "no_cache", False):
        return None, {}
    cache = ArtifactCache(resolve_cache_dir(getattr(args, "cache_dir", None)))
    baseline = {
        name: perf.REGISTRY.counters.get(name, 0) for name in _CACHE_COUNTERS
    }
    return cache, baseline


def _cache_note(cache, baseline) -> None:
    """One machine-greppable stderr line: hits/misses this invocation."""
    if cache is None:
        return
    deltas = {
        name: perf.REGISTRY.counters.get(name, 0) - baseline.get(name, 0)
        for name in _CACHE_COUNTERS
    }
    hits = deltas["cache.device.hits"] + deltas["cache.diff.hits"]
    misses = deltas["cache.device.misses"] + deltas["cache.diff.misses"]
    replays = deltas["memo.localization_replays"]
    dag_hits = deltas["header_localize.dag_cache_hits"]
    print(
        f"campion: cache: hits={hits} misses={misses} "
        f"localization_replays={replays} dag_cache_hits={dag_hits} "
        f"dir={cache.root}",
        file=sys.stderr,
    )


def _load(
    args: argparse.Namespace,
    paths: List[str],
    cache: Optional[ArtifactCache] = None,
) -> List[DeviceConfig]:
    """Load the command's configs honoring ``--strict``/``--lenient``.

    With a cache, an unchanged file (same text/name/dialect/strictness)
    is unpickled instead of re-parsed — with the facts the parser
    sealed on it.  The parses share one stanza memo, so an ACL stanza
    repeated across the files is parsed and fingerprinted once.

    Every caller is a one-shot command, so the loaded devices live
    until the process exits.  The cyclic collector is paused while
    they load and then frozen out of its generations
    (:func:`gc.freeze`): a collection over them could free nothing, yet
    every later allocation burst would rescan them.  Only this CLI
    path does it; ``campion serve`` and the library API keep the
    default collector, since a long-lived process must not freeze.
    """
    with _collector_paused(freeze=True):
        return _load_devices(args, paths, cache)


@contextmanager
def _collector_paused(freeze: bool = False) -> Iterator[None]:
    """Pause the cyclic collector for a block of a one-shot command,
    then (``freeze``) move what survived out of its generations."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if freeze:
            gc.freeze()
        if enabled:
            gc.enable()


def _load_devices(
    args: argparse.Namespace,
    paths: List[str],
    cache: Optional[ArtifactCache],
) -> List[DeviceConfig]:
    memo = None  # the run's StanzaMemo, made by the first parse
    devices = []
    for path in paths:
        with open(path, "r") as handle:
            text = handle.read()
        # Uncached parses name the file by its normalized path, as
        # ``load_config`` does; a cached parse keeps the argument, which
        # is part of the cache key.
        filename = path if cache is not None else str(pathlib.Path(path))
        device = None
        if cache is not None:
            device = cache.get_device(text, path, args.dialect, args.strict)
        if device is None:
            if memo is None:
                from .parsers.common import StanzaMemo

                memo = StanzaMemo()
            device = parse_config(
                text,
                filename=filename,
                dialect=args.dialect,
                strict=args.strict,
                memo=memo,
            )
            if cache is not None:
                cache.put_device(text, path, args.dialect, args.strict, device)
        for diagnostic in device.diagnostics:
            print(f"campion: {diagnostic.render()}", file=sys.stderr)
        devices.append(device)
    return devices


def _summarize(device: DeviceConfig) -> str:
    lines = [
        f"hostname:        {device.hostname}",
        f"vendor:          {device.vendor}",
        f"interfaces:      {len(device.interfaces)}",
        f"static routes:   {len(device.static_routes)}",
        f"prefix lists:    {len(device.prefix_lists)}",
        f"community lists: {len(device.community_lists)}",
        f"route maps:      {len(device.route_maps)}",
        f"ACLs:            {len(device.acls)}",
        f"BGP neighbors:   {len(device.bgp.neighbors) if device.bgp else 0}",
        f"OSPF interfaces: {len(device.ospf.interfaces) if device.ospf else 0}",
    ]
    return "\n".join(lines)


def _cmd_parse(args: argparse.Namespace) -> int:
    cache, baseline = _open_cache(args)
    (device,) = _load(args, [args.config], cache)
    print(_summarize(device))
    _cache_note(cache, baseline)
    return EXIT_PARTIAL if device.parse_degraded() else EXIT_EQUIVALENT


def _cmd_compare(args: argparse.Namespace) -> int:
    cache, baseline = _open_cache(args)
    start = time.time()
    device1, device2 = _load(args, [args.config1, args.config2], cache)
    parse_time = time.time() - start
    start = time.time()
    report = config_diff(
        device1,
        device2,
        exhaustive_communities=args.exhaustive_communities,
        node_limit=args.node_limit,
        time_budget=args.timeout,
        memo=DiffMemo(cache) if cache is not None else None,
    )
    diff_time = time.time() - start
    if args.json:
        print(report_to_json(report))
    else:
        from .core.present import render_report

        print(render_report(report))
        print()
        print(f"(parse {parse_time:.2f}s, diff {diff_time:.2f}s)")
    _cache_note(cache, baseline)
    if report.is_degraded():
        return EXIT_PARTIAL
    return EXIT_EQUIVALENT if report.is_equivalent() else EXIT_DIFFERENCES


def _cmd_baseline(args: argparse.Namespace) -> int:
    from .baseline import monolithic_route_map_check, monolithic_static_route_check

    device1, device2 = _load(args, [args.config1, args.config2])
    found = False
    shared_maps = set(device1.route_maps) & set(device2.route_maps)
    for name in sorted(shared_maps):
        counterexample = monolithic_route_map_check(
            device1.route_maps[name],
            device2.route_maps[name],
            device1.hostname,
            device2.hostname,
        )
        if counterexample is not None:
            print(f"route map {name}:")
            print(counterexample.render())
            print()
            found = True
    static = monolithic_static_route_check(device1, device2)
    if static is not None:
        print("static routes:")
        print(static.render())
        found = True
    if not found:
        print("no differences found by the monolithic check")
    return EXIT_DIFFERENCES if found else EXIT_EQUIVALENT


def _cmd_translate(args: argparse.Namespace) -> int:
    from .render import translate

    (device,) = _load(args, [args.config])
    result = translate(device, args.target)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(result.text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(result.text, end="")
    if result.verified:
        print("verification: translation is behaviorally equivalent", file=sys.stderr)
        return EXIT_EQUIVALENT
    from .core.present import render_report

    print("verification: translation DIFFERS from the source:", file=sys.stderr)
    print(render_report(result.report), file=sys.stderr)
    return EXIT_DIFFERENCES


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from .oracle import run_selfcheck

    cache, baseline = _open_cache(args)

    def progress(done: int, total: int) -> None:
        if args.progress and (done % 10 == 0 or done == total):
            print(f"campion: selfcheck {done}/{total} pairs", file=sys.stderr)

    try:
        result = run_selfcheck(
            seed=args.seed,
            pairs=args.pairs,
            on_progress=progress,
            cache=cache,
            generators=(
                [name.strip() for name in args.generators.split(",") if name.strip()]
                if args.generators
                else None
            ),
        )
    except ValueError as exc:
        return _fail(str(exc))
    print(result.render())
    _cache_note(cache, baseline)
    return EXIT_EQUIVALENT if result.passed else EXIT_DIFFERENCES


def _cmd_fleet(args: argparse.Namespace) -> int:
    cache, baseline = _open_cache(args)
    devices = _load(args, args.configs, cache)
    try:
        report = compare_fleet(
            devices,
            reference=args.reference,
            timeout=args.timeout,
            node_limit=args.node_limit,
            memo=DiffMemo(cache) if cache is not None else None,
        )
    except ValueError as exc:
        # duplicate hostnames, too-few devices, unknown reference
        return _fail(str(exc))
    except RuntimeError as exc:
        # every pairwise comparison failed — no verdict at all
        return _fail(str(exc))
    if args.json:
        # Timing-free and deterministically ordered: two runs over the
        # same fleet (cold or warm) print byte-identical JSON.  The
        # report's dict is acyclic, so a collection while it is built
        # and written could free nothing.
        with _collector_paused():
            write_json(fleet_report_to_dict(report), sys.stdout)
    else:
        from .core.present import render_report

        print(report.render_summary())
        if report.symmetry is not None:
            print(report.symmetry.render())
        print()
        print(report.render_coverage())
        for hostname in report.outliers:
            print(f"\n--- {hostname} vs {report.reference} " + "-" * 40)
            print(render_report(report.reports[hostname]))
    _cache_note(cache, baseline)
    if report.is_partial():
        return EXIT_PARTIAL
    return EXIT_DIFFERENCES if report.outliers else EXIT_EQUIVALENT


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import AnalysisService, ServiceConfig
    from .service.app import default_journal_path

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        journal_path=args.journal or default_journal_path(),
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        queue_limit=args.queue_limit,
        max_attempts=args.max_attempts,
        tenant_quota=args.tenant_quota,
        job_concurrency=args.job_concurrency,
        timeout=args.timeout,
        node_limit=args.node_limit,
        drain_grace=args.drain_grace,
    )
    service = AnalysisService(config)
    print(
        f"campion serve: listening on http://{config.host}:{config.port}"
        f" (journal {service.journal.path},"
        f" cache {'disabled' if service.cache is None else service.cache.root})",
        file=sys.stderr,
    )
    asyncio.run(service.serve())
    print("campion serve: drained and stopped", file=sys.stderr)
    return EXIT_EQUIVALENT


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ArtifactCache(resolve_cache_dir(getattr(args, "cache_dir", None)))
    if args.action == "clear":
        removed = cache.clear()
        print(f"cache: removed {removed} artifact(s) from {cache.root}")
        return EXIT_EQUIVALENT
    stats = cache.stats()
    print(f"cache: {stats['root']}")
    for store, numbers in stats["stores"].items():
        line = (
            f"  {store}: {numbers['entries']} entr"
            f"{'y' if numbers['entries'] == 1 else 'ies'}, "
            f"{numbers['bytes']} bytes"
        )
        if "localized" in numbers:
            line += f", {numbers['localized']} localized"
        print(line)
    return EXIT_EQUIVALENT


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``campion`` CLI.

    A command that loads configs freezes the loaded fleet out of the
    cyclic collector (:func:`_load`), and with it every object the
    process tracks at that moment.  A console run exits right after; an
    in-process caller that goes on working should call
    :func:`gc.unfreeze` once the command returns.
    """
    parser = argparse.ArgumentParser(
        prog="campion",
        description="Debug router configuration differences (SIGCOMM 2021 reproduction)",
    )
    parser.add_argument(
        "--dialect",
        choices=["auto", "cisco", "juniper", "arista"],
        default="auto",
        help="configuration dialect (default: auto-detect)",
    )
    strictness = parser.add_mutually_exclusive_group()
    strictness.add_argument(
        "--strict",
        action="store_true",
        default=False,
        help="fail on any unparseable stanza (exit 2)",
    )
    strictness.add_argument(
        "--lenient",
        dest="strict",
        action="store_false",
        help="record-and-skip unparseable stanzas (default)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent artifact cache root "
        "(default: $CAMPION_CACHE_DIR or ~/.cache/campion)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        default=False,
        help="disable the persistent artifact cache for this invocation",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_budget_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--timeout",
            type=_seconds,
            default=None,
            metavar="SECONDS",
            help="per-pair wall-clock budget (default: unbounded)",
        )
        subparser.add_argument(
            "--node-limit",
            type=_node_limit,
            default=None,
            metavar="NODES",
            help="per-pair BDD node budget (default: unbounded)",
        )

    parse_parser = subparsers.add_parser("parse", help="parse one configuration")
    parse_parser.add_argument("config")
    parse_parser.set_defaults(func=_cmd_parse)

    compare_parser = subparsers.add_parser(
        "compare", help="find and localize all differences between two configs"
    )
    compare_parser.add_argument("config1")
    compare_parser.add_argument("config2")
    compare_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    compare_parser.add_argument(
        "--exhaustive-communities",
        action="store_true",
        help="localize the community dimension exhaustively (extension)",
    )
    add_budget_flags(compare_parser)
    compare_parser.set_defaults(func=_cmd_compare)

    baseline_parser = subparsers.add_parser(
        "baseline", help="Minesweeper-style single-counterexample check"
    )
    baseline_parser.add_argument("config1")
    baseline_parser.add_argument("config2")
    baseline_parser.set_defaults(func=_cmd_baseline)

    fleet_parser = subparsers.add_parser(
        "fleet", help="n-way comparison with outlier detection"
    )
    fleet_parser.add_argument("configs", nargs="+", help="two or more config files")
    fleet_parser.add_argument(
        "--reference",
        default=None,
        help="known-good hostname (default: elect the medoid)",
    )
    fleet_parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable, timing-free output (byte-identical across runs)",
    )
    add_budget_flags(fleet_parser)
    fleet_parser.set_defaults(func=_cmd_fleet)

    selfcheck_parser = subparsers.add_parser(
        "selfcheck",
        help="differential-test the analysis pipeline against a brute-force oracle",
    )
    selfcheck_parser.add_argument(
        "--seed", type=int, default=0, help="run seed (default: 0)"
    )
    selfcheck_parser.add_argument(
        "--pairs",
        type=int,
        default=50,
        help="number of generated component pairs to check (default: 50)",
    )
    selfcheck_parser.add_argument(
        "--progress",
        action="store_true",
        help="print progress to stderr every 10 pairs",
    )
    selfcheck_parser.add_argument(
        "--generators",
        default=None,
        metavar="NAME[,NAME...]",
        help="restrict to these case generators (e.g. "
        "'fleet,symmetry,near-symmetry,service' for the fleet A/B "
        "cross-checks only; default: round-robin over all)",
    )
    selfcheck_parser.set_defaults(func=_cmd_selfcheck)

    translate_parser = subparsers.add_parser(
        "translate", help="render a config in the other dialect and verify it"
    )
    translate_parser.add_argument("config")
    translate_parser.add_argument(
        "--target", choices=["cisco", "juniper"], required=True
    )
    translate_parser.add_argument(
        "--output", default=None, help="write the translation here (default: stdout)"
    )
    translate_parser.set_defaults(func=_cmd_translate)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the always-on analysis service (HTTP-JSON job API)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8642, help="TCP port (default: 8642)"
    )
    serve_parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="job journal file (default: $CAMPION_JOURNAL or "
        "<cache root>/service/journal.jsonl)",
    )
    serve_parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="max queued+running jobs before 429 backpressure (default: 64)",
    )
    serve_parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="attempts per job before dead-lettering (default: 3)",
    )
    serve_parser.add_argument(
        "--tenant-quota",
        type=int,
        default=1,
        help="concurrent running jobs per tenant (default: 1)",
    )
    serve_parser.add_argument(
        "--job-concurrency",
        type=int,
        default=2,
        help="jobs executed concurrently across tenants (default: 2)",
    )
    serve_parser.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        help="seconds to let running jobs finish on SIGTERM (default: 30)",
    )
    add_budget_flags(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the persistent artifact cache"
    )
    cache_parser.add_argument(
        "action", choices=["stats", "clear"], help="what to do with the cache"
    )
    cache_parser.set_defaults(func=_cmd_cache)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(str(exc))
    except OSError as exc:
        name = getattr(exc, "filename", None)
        detail = exc.strerror or str(exc)
        return _fail(f"{name}: {detail}" if name else detail)
    except KeyboardInterrupt:
        print("campion: interrupted", file=sys.stderr)
        return 130
    except Exception as exc:  # noqa: BLE001 - last-resort clean reporting
        return _fail(
            f"internal error ({type(exc).__name__}: {exc}); please report this"
        )


if __name__ == "__main__":
    sys.exit(main())
