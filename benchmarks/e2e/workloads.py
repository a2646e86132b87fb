"""The four seeded workloads of the end-to-end benchmark, and their oracle.

Usage::

    python benchmarks/e2e/workloads.py NAME SEED DIR [--tiny]

writes workload ``NAME`` for ``SEED`` into ``DIR``: the configurations
under ``configs/`` with bare filenames, both texts of the edited file
under ``variants/`` (``base.cfg`` and ``edit.cfg``), and
``workload.json`` with the ``campion`` arguments and the oracle's
reference for each variant.  ``run.py`` runs this as a child process so
that its own memory stays small: a child's peak RSS, as ``wait4``
reports it, includes the parent's at the time of the fork.

A workload is a set of configuration texts, the ``campion`` arguments
that analyze them, and a one-device edit: one flipped ACL action, the
change-review loop.  Each generator receives only the benchmark seed.

The reference output of every workload (and of its edited variant) is
computed in-process with the oracle-baseline configuration: no symmetry
compression, the BDD set-algebra backend, an in-process ``DiffMemo``
and no persistent cache.  The default CLI path (near compression, the
atoms backend, the persistent cache behind its memo) shares none of
those choices, so agreement is evidence, not tautology.

``repro`` is imported inside the functions, so ``run.py`` can import
this module for its names without the source tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import random
import re
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

WORKLOADS = ("acl_pair", "gateways_distinct", "clos_conforming", "clos_params")

#: Generator arguments per workload.  Sized so that one cold/warm/edit
#: round takes a few seconds on a 2-core host and several rounds fit in
#: one benchmark run.
SIZES: Dict[str, Dict[str, int]] = {
    # The paper's §5.4 pairing at its 1,000-rule point.
    "acl_pair": {"rule_count": 1000, "differences": 10},
    "gateways_distinct": {"count": 16, "outliers": 15, "rule_count": 24},
    "clos_conforming": {"count": 200, "roles": 1, "rule_count": 48, "vendors": 2},
    "clos_params": {"count": 120, "roles": 3, "rule_count": 24, "uplinks": 2},
}

#: Small instances of the same generators, for the benchmark's own tests.
TINY: Dict[str, Dict[str, int]] = {
    "acl_pair": {"rule_count": 20, "differences": 2},
    "gateways_distinct": {"count": 4, "outliers": 3, "rule_count": 6},
    "clos_conforming": {"count": 6, "roles": 1, "rule_count": 8, "vendors": 2},
    "clos_params": {"count": 6, "roles": 3, "rule_count": 6, "uplinks": 2},
}

#: Ground truth for one variant: the exact sorted outlier list, the
#: number of outliers, or (``compare``) ``None`` for "differences found".
Truth = Union[List[str], int, None]


@dataclass
class Workload:
    """Configuration texts, the command that analyzes them, and where to edit."""

    name: str
    #: ``"compare"`` (two files) or ``"fleet"``
    command: str
    #: bare filename -> configuration text, in command-line order
    texts: Dict[str, str]
    #: the files a one-device edit may change
    edit_candidates: List[str]
    #: generator ground truth for the unedited workload
    truth: Truth

    def campion_args(self) -> List[str]:
        """The ``campion`` arguments after the global options."""
        return [self.command, "--json", *self.texts]

    def edit_truth(self, edited: str) -> Truth:
        """Ground truth after editing ``edited``.

        In a fleet with no outliers the edited device becomes the only
        one; otherwise the edit keeps the outlier set (gateway edits
        touch outliers only, and every parameterized device already is
        one).
        """
        return [_stem(edited)] if self.truth == [] else self.truth


def canonical_digest(text: Union[str, bytes]) -> str:
    """SHA-256 of the JSON document with keys sorted.

    Equal for outputs that differ only in object key order; a reordered
    list is a different report and gets a different digest.
    """
    return _digest(json.loads(text))


def _digest(document: object) -> str:
    canonical = json.dumps(document, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Generation


_ACL_HEADER = re.compile(r"^ip access-list extended \S+$|^ *filter \S+ \{$", re.MULTILINE)
_FIRST_ACTION = re.compile(r"^ (?:permit|deny) .*$|then (?:accept|discard);", re.MULTILINE)


def flip_first_rule(text: str, rng: random.Random) -> str:
    """Flip the action of the first rule of one seeded ACL in ``text``.

    The flip is ``repro.workloads.mutation.flip_acl_action`` applied to
    a window holding only that rule.  A first rule is never shadowed,
    so the edit always changes the device's behaviour.
    """
    from repro.workloads.mutation import flip_acl_action

    header = rng.choice(list(_ACL_HEADER.finditer(text)))
    action = _FIRST_ACTION.search(text, header.end())
    mutation = flip_acl_action(text[header.start() : action.end()], rng)
    return text[: header.start()] + mutation.text + text[action.end() :]


def _record_texts(generator, **kwargs) -> Tuple[Dict[str, str], object]:
    """Run a ``repro.workloads.datacenter`` fleet generator for its texts.

    The generators return parsed devices; the benchmark needs the
    rendered texts, so it records them at the generator's parse calls
    (and skips the parse, which the timed runs repeat anyway).
    """
    from repro.workloads import datacenter

    texts: Dict[str, str] = {}

    def record(text: str, filename: str, *args, **kwds) -> None:
        texts[filename] = text

    saved = datacenter.parse_cisco, datacenter.parse_juniper
    datacenter.parse_cisco = datacenter.parse_juniper = record
    try:
        _, extra = generator(**kwargs)
    finally:
        datacenter.parse_cisco, datacenter.parse_juniper = saved
    return texts, extra


def _stem(filename: str) -> str:
    return filename[: -len(".cfg")]


def build_workload(name: str, seed: int, sizes: Optional[Dict[str, Dict[str, int]]] = None) -> Workload:
    """Generate workload ``name`` from ``seed`` (``sizes`` defaults to SIZES)."""
    from repro.workloads import datacenter
    from repro.workloads.acl_gen import generate_acl_pair

    params = (sizes or SIZES)[name]
    if name == "acl_pair":
        pair = generate_acl_pair(seed=seed, **params)
        texts = {"cisco-gw.cfg": pair.cisco_text, "juniper-gw.cfg": pair.juniper_text}
        return Workload(name, "compare", texts, list(texts), truth=None)
    if name == "gateways_distinct":
        texts, expected = _record_texts(datacenter.gateway_fleet, seed=seed, **params)
        # Edit outliers only: editing the one clean gateway would move
        # the medoid and with it the whole verdict.
        return Workload(name, "fleet", texts, [host + ".cfg" for host in expected], expected)
    if name == "clos_conforming":
        texts, _ = _record_texts(datacenter.templated_clos_fleet, seed=seed, **params)
        return Workload(name, "fleet", texts, sorted(texts), truth=[])
    if name == "clos_params":
        texts, _ = _record_texts(datacenter.parameterized_clos_fleet, seed=seed, **params)
        # No two devices are identical: everything but the reference differs.
        return Workload(name, "fleet", texts, sorted(texts), truth=len(texts) - 1)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# Oracle


#: Edits drawn before giving up on one that keeps the fleet's reference.
EDIT_ATTEMPTS = 20


@dataclass
class Reference:
    """The oracle's verdict on one variant of a workload."""

    #: the report as ``campion --json`` prints it, parsed
    report: Dict
    digest: str
    exit_code: int


def _truth_problem(command: str, expected: Truth, report: Dict) -> Optional[str]:
    """Why the oracle's report contradicts the generator, or ``None``."""
    if command == "compare":
        return "no differences found" if report["equivalent"] else None
    outliers = report["outliers"]
    if isinstance(expected, int):
        found = len(outliers)
        return None if found == expected else f"{found} outliers, expected {expected}"
    return None if outliers == expected else f"outliers {outliers}, expected {expected}"


def oracle(command: str, devices: List, memo) -> Reference:
    """Analyze parsed ``devices`` with the oracle-baseline configuration.

    ``memo`` is an in-process ``repro.core.DiffMemo``; the base and the
    edited variant share one, as they share most device pairs.
    """
    from repro.core import compare_fleet, config_diff, fleet_report_to_dict, report_to_json

    if command == "compare":
        report = config_diff(*devices, memo=memo, set_backend="bdd")
        text = report_to_json(report)
        exit_code = 3 if report.is_degraded() else int(not report.is_equivalent())
    else:
        fleet = compare_fleet(devices, compress="off", set_backend="bdd", memo=memo)
        text = json.dumps(fleet_report_to_dict(fleet))
        exit_code = 3 if fleet.is_partial() else int(bool(fleet.outliers))
    report = json.loads(text)
    return Reference(report, _digest(report), exit_code)


def prepare(name: str, seed: int, directory: pathlib.Path, tiny: bool = False) -> None:
    """Write workload ``name``, its one-device edit and their references.

    The edit is drawn from ``seed`` among the workload's candidates,
    redrawn while it would move a fleet's reference device: the
    change-review loop this workload times is one device drifting from
    a fleet whose reference stays put.  An edit that moves the reference
    re-analyzes every report, a different cost the seed would otherwise
    pick at random.
    """
    from repro.core import DiffMemo
    from repro.parsers import parse_config

    workload = build_workload(name, seed, TINY if tiny else None)
    devices = {filename: parse_config(text, filename=filename) for filename, text in workload.texts.items()}
    memo = DiffMemo()
    base = oracle(workload.command, list(devices.values()), memo)
    rng = random.Random(seed)
    for _ in range(EDIT_ATTEMPTS):
        edited = rng.choice(workload.edit_candidates)
        edit_text = flip_first_rule(workload.texts[edited], rng)
        edit = oracle(
            workload.command,
            list({**devices, edited: parse_config(edit_text, filename=edited)}.values()),
            memo,
        )
        if workload.command == "compare" or edit.report["reference"] == base.report["reference"]:
            break
    else:
        raise RuntimeError(f"{name}: no edit in {EDIT_ATTEMPTS} draws keeps the fleet's reference")

    configs, variants = directory / "configs", directory / "variants"
    configs.mkdir(parents=True)
    variants.mkdir()
    for filename, text in workload.texts.items():
        (configs / filename).write_text(text)
    (variants / "base.cfg").write_text(workload.texts[edited])
    (variants / "edit.cfg").write_text(edit_text)
    references = {}
    for variant, reference, truth in (("base", base, workload.truth), ("edit", edit, workload.edit_truth(edited))):
        problem = _truth_problem(workload.command, truth, reference.report)
        if reference.exit_code == 3:
            problem = "the oracle's own analysis is partial"
        references[variant] = {"digest": reference.digest, "exit_code": reference.exit_code, "truth_problem": problem}
    spec = {
        "name": name,
        "seed": seed,
        "args": workload.campion_args(),
        "edit_filename": edited,
        "references": references,
    }
    (directory / "workload.json").write_text(json.dumps(spec, indent=2))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="Write one workload of the end-to-end benchmark.")
    parser.add_argument("name", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("directory", type=pathlib.Path, help="must not exist yet")
    parser.add_argument("--tiny", action="store_true", help="the small instance the tests use")
    args = parser.parse_args(argv)
    for key in [key for key in os.environ if key.startswith("CAMPION_")]:
        del os.environ[key]
    # Compile every module the timed CLI runs import into the bytecode
    # cache now, so that no timed run pays for it.
    import repro.cli  # noqa: F401

    prepare(args.name, args.seed, args.directory, args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
