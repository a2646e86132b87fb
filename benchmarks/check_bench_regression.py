"""CI guard against benchmark speedup regressions.

Compares the speedup ratios in freshly produced ``benchmarks/results/``
artifacts against the committed ``benchmarks/baselines/`` snapshots and
fails (exit 1) when any tracked ratio fell more than the tolerance band
(default 30%) below its baseline.  Ratios — fast path over baseline path
measured in the same process — transfer across machines far better than
wall times, which is what makes a committed baseline meaningful on a CI
runner the baseline was never measured on.

Run the benchmarks first (they write the fresh artifacts), then::

    python benchmarks/check_bench_regression.py [--tolerance 0.30]

``--artifacts NAME[,NAME...]`` restricts the guard to a subset of the
tracked artifacts, so a run that only produced some of them doesn't
fail on the ones it never ran.

Baselines are regenerated by running the benchmark at the smoke scale
CI uses and copying the JSON from ``benchmarks/results/`` into
``benchmarks/baselines/``.
"""

import argparse
import json
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINES_DIR = pathlib.Path(__file__).parent / "baselines"

#: Dotted keys guarded per artifact.  Only same-process *ratios* belong
#: here: absolute seconds depend on the runner, and parallel speedups
#: depend on its core count.
TRACKED = {
    "BENCH_atoms.json": ("pairing.speedup",),
    "BENCH_fleet_atoms.json": ("speedup_vs_atoms",),
    "BENCH_service.json": ("warm_push.speedup",),
    "BENCH_near_symmetry.json": ("matrix_speedup", "templated.matrix_speedup"),
    "BENCH_localize.json": ("collect_speedup",),
}

_MISSING = object()


def lookup(payload: dict, dotted: str):
    """The value at ``dotted`` in ``payload``, or ``_MISSING``.

    A tracked key absent from a payload used to raise a bare
    ``KeyError`` — which a CI log renders as a crash of the *guard*, not
    a finding about the *artifact*.  Worse, a benchmark that silently
    renamed its metric would take the baseline key with it and the
    guard would never compare anything again.  Missing keys are now a
    loud, attributed failure at the call site instead.
    """
    value = payload
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return _MISSING
        value = value[part]
    return float(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when fresh benchmark speedups regress vs baselines"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional drop below the baseline (default 0.30)",
    )
    parser.add_argument("--results-dir", type=pathlib.Path, default=RESULTS_DIR)
    parser.add_argument(
        "--baselines-dir", type=pathlib.Path, default=BASELINES_DIR
    )
    parser.add_argument(
        "--artifacts",
        help="comma-separated artifact names to check (default: all tracked)",
    )
    args = parser.parse_args(argv)

    if args.artifacts:
        wanted = {name.strip() for name in args.artifacts.split(",")}
        unknown = wanted - set(TRACKED)
        if unknown:
            print(
                f"unknown artifact(s): {', '.join(sorted(unknown))} "
                f"(tracked: {', '.join(sorted(TRACKED))})",
                file=sys.stderr,
            )
            return 2
        tracked = {name: TRACKED[name] for name in wanted}
    else:
        tracked = TRACKED

    failures = []
    checked = 0
    if not args.artifacts:
        # A committed baseline nobody guards is dead weight that *looks*
        # guarded; fail the full run until it is tracked or removed.
        for path in sorted(args.baselines_dir.glob("BENCH_*.json")):
            if path.name not in TRACKED:
                failures.append(
                    f"{path.name}: committed baseline has no TRACKED entry"
                    " — add its guarded keys or delete the file"
                )
    for name, keys in sorted(tracked.items()):
        baseline_path = args.baselines_dir / name
        fresh_path = args.results_dir / name
        if not baseline_path.exists():
            print(f"{name}: no committed baseline, skipping")
            continue
        if not fresh_path.exists():
            failures.append(
                f"{name}: fresh artifact missing — run the benchmark before "
                "the guard"
            )
            continue
        baseline = json.loads(baseline_path.read_text())
        fresh = json.loads(fresh_path.read_text())
        base_scale = baseline.get("workload_scale")
        fresh_scale = fresh.get("workload_scale")
        if base_scale != fresh_scale:
            # A smoke run compared against a full baseline (or vice
            # versa) measures a different workload — comparing the
            # ratios anyway can mask a real regression behind the scale
            # change, so refuse instead of guessing.
            failures.append(
                f"{name}: workload_scale mismatch — baseline is "
                f"{base_scale!r}, fresh is {fresh_scale!r}; regenerate the "
                "baseline at the scale CI runs"
            )
            continue
        for key in keys:
            base_value = lookup(baseline, key)
            fresh_value = lookup(fresh, key)
            if base_value is _MISSING or fresh_value is _MISSING:
                where = []
                if base_value is _MISSING:
                    where.append("committed baseline")
                if fresh_value is _MISSING:
                    where.append("fresh results")
                failures.append(
                    f"{name}:{key} missing from the {' and '.join(where)}"
                    " — tracked key and benchmark payload disagree"
                )
                continue
            floor = base_value * (1.0 - args.tolerance)
            checked += 1
            verdict = "ok" if fresh_value >= floor else "REGRESSED"
            print(
                f"{name}:{key}: baseline {base_value:.2f}x, "
                f"fresh {fresh_value:.2f}x, floor {floor:.2f}x — {verdict}"
            )
            if fresh_value < floor:
                failures.append(
                    f"{name}:{key} regressed: {fresh_value:.2f}x < "
                    f"{floor:.2f}x ({base_value:.2f}x - {args.tolerance:.0%})"
                )
    if failures:
        print()
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"\n{checked} ratio(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
