"""Fleet symmetry compression — equal modulo a parameter substitution.

This module owns the matrix-compression decision for
:func:`repro.core.fleet.compare_fleet`.  Its first step collapses
devices whose semantic content is byte-identical (device-fingerprint
classes: intra-class pairs are zero differences, members inherit their
representative's outcomes verbatim).  Real templated fleets are rarely
that clean: every leaf differs in its loopback, interface addresses,
router-id, and BGP neighbor statements, so fingerprint classes
degenerate to N singletons and the matrix is back to O(N^2) full diffs.
The second step compresses that case, following the Control Plane
Compression insight (Beckett et al., SIGCOMM 2018): devices equal
*modulo a parameter substitution* can share one analysis under explicit
soundness conditions — byte-identical classes are its identity-
substitution case.

The machinery rests on template fingerprints
(:func:`repro.model.fingerprint.compute_template`): a device is
``(template_fingerprint, substitution)`` where the substitution fills
an allowlisted set of rewritable literals (interface subnets,
router-ids, BGP peer/update-source addresses — never ACL/route-map
match semantics).  The soundness theorem this module encodes:

    For devices ``A, B`` and ``A', B'`` with ``template(A) ==
    template(A')`` and ``template(B) == template(B')``, the
    difference *count* ``config_diff_summary(A', B') ==
    config_diff_summary(A, B)`` holds whenever both pairs induce the
    same joint first-occurrence equality pattern over their hole
    *atoms* — the ``(tag, literal)`` values the diff actually consults
    (interface subnets via connected-route symmetric difference, BGP
    peers via peer-keyed neighbor pairing).  Free holes (router-ids,
    update-sources) never reach a comparison and carry no atoms.

:func:`pair_signature` canonicalizes ``(template_fp_1, template_fp_2,
pattern)`` for an unordered pair — difference counts are symmetric, so
orientation is normalized away.  :func:`plan_near_pairs` then analyzes
one representative pair per signature and :meth:`SymmetryPlan.expand_near`
replays its count across the class.  Every class is statically checked
by :func:`verify_template_class` first; a failing class dissolves into
singletons (concrete analysis) with a ``near_symmetry.fallbacks`` perf
count and a ``FleetReport.notes`` entry — mirroring the atom-budget
fallback convention.  A representative pair that *fails* at runtime
fails only content-identical pairs; merely near-symmetric member pairs
fall back to concrete analysis (``expand_near`` returns them for a
second matrix pass), so one targeted fault cannot poison an entire class.

:func:`raw_substitution` / :func:`replay_report_dict` are the
full-report form of the replay identity: the oracle and the test suite
use them to prove that a replayed pair's diff entries, spans, and
localized headers are exactly the representative pair's rewritten
through the substitution.  ``compare_fleet`` itself never serves
rewritten reports — the matrix is count-based and reference reports
are always produced live — so serialized fleet reports stay
byte-identical to uncompressed runs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .. import perf
from ..model.device import DeviceConfig
from ..model.fingerprint import (
    _HOLE_FIELDS,
    DeviceTemplate,
    partition_by_device_fingerprint,
)

if TYPE_CHECKING:
    from .parallel import PairOutcome

__all__ = [
    "SymmetryPlan",
    "pair_pattern",
    "pair_signature",
    "verify_template_class",
    "plan_near_pairs",
    "raw_substitution",
    "replay_report_dict",
]

#: Perf counter bumped once per fallback event (dissolved template
#: class, or member pair re-analyzed after its representative failed).
FALLBACK_COUNTER = "near_symmetry.fallbacks"

_ALLOWED_KINDS = frozenset(_HOLE_FIELDS.values())


@dataclass(frozen=True)
class SymmetryPlan:
    """Representative-pair plan for a compressed fleet matrix.

    Built by :func:`plan_near_pairs`.  Devices are first grouped into
    device-fingerprint classes (:attr:`representative`,
    :attr:`members`); the class representatives are then grouped into
    template classes, and only one representative pair per replay
    signature is analyzed (:attr:`pair_keys`).  Every full-fleet pair
    is recovered by :meth:`expand_near`.
    """

    #: hostname -> its class representative (smallest hostname in class)
    representative: Dict[str, str]
    #: representative -> all class members, sorted (representative first)
    members: Dict[str, Tuple[str, ...]]
    #: the unordered representative pairs to actually analyze, sorted
    pair_keys: Tuple[Tuple[str, str], ...]
    #: representative pair -> the analyzed pair whose outcome it
    #: replays (identity entries omitted)
    replay_key: Dict[Tuple[str, str], Tuple[str, str]] = field(
        default_factory=dict
    )
    #: template fingerprint -> fingerprint-class representatives
    #: sharing it (post-verification)
    template_classes: Dict[str, Tuple[str, ...]] = field(
        default_factory=dict
    )

    @property
    def class_count(self) -> int:
        """Number of template classes."""
        return len(self.template_classes)

    def expand_near(
        self,
        hostnames: Sequence[str],
        outcomes: Dict[Tuple[str, str], "PairOutcome"],
    ) -> Tuple[
        Dict[Tuple[str, str], int],
        Dict[Tuple[str, str], str],
        List[Tuple[str, str]],
    ]:
        """The full ``(matrix, failed_pairs, fallback_pairs)``.

        Same-class pairs expand to count 0 without consulting
        ``outcomes`` at all; cross-class pairs take their representative
        pair's count, or its failure cause verbatim when that pair was
        analyzed itself (content-identical pairs fail together, as the
        uncompressed run would for a deterministic failure).  A
        representative pair that replays *another* signature
        representative takes that pair's count, but if that pair failed
        it is merely near-symmetric, not content-identical: its fleet
        pairs are returned as ``fallback_pairs`` for concrete analysis,
        so one targeted fault never poisons a whole template class.  A
        budget abort is the exception: it answers the work the signature
        demands under the run's budgets, so the replaying pairs fail
        with its cause instead of each spending the budget again.

        Each representative pair's outcome is looked up once and reused
        for every fleet pair it stands for.
        """
        matrix: Dict[Tuple[str, str], int] = {}
        failed: Dict[Tuple[str, str], str] = {}
        fallback: List[Tuple[str, str]] = []
        ordered = sorted(hostnames)
        reps = [self.representative[hostname] for hostname in ordered]
        # rep1 -> rep2 -> (matrix, count) | (failed, cause) | (None, None)
        # for a fallback: each representative pair resolved once.
        resolved: Dict[str, Dict[str, Tuple[Optional[dict], object]]] = {}
        for index, first in enumerate(ordered):
            rep1 = reps[index]
            row = resolved.setdefault(rep1, {})
            for second, rep2 in zip(ordered[index + 1 :], reps[index + 1 :]):
                if rep1 == rep2:
                    matrix[(first, second)] = 0
                    continue
                verdict = row.get(rep2)
                if verdict is None:
                    rep_key = (rep1, rep2) if rep1 < rep2 else (rep2, rep1)
                    replay = self.replay_key.get(rep_key, rep_key)
                    outcome = outcomes[replay]
                    if outcome.ok:
                        verdict = (matrix, outcome.result)
                    elif rep_key == replay or outcome.aborted:
                        verdict = (failed, outcome.describe())
                    else:
                        verdict = (None, None)
                    row[rep2] = verdict
                target, value = verdict
                if target is None:
                    fallback.append((first, second))
                else:
                    target[(first, second)] = value
        return matrix, failed, fallback


def pair_pattern(
    atoms1: Sequence[Tuple[str, str]], atoms2: Sequence[Tuple[str, str]]
) -> Tuple[int, ...]:
    """First-occurrence renaming of the pair's joint atom sequence.

    Two pairs with the same pattern agree on every within-tag equality
    the diff can ask about their holes — which atoms coincide within
    and across the two devices — while the concrete literals are
    abstracted away.  (Atoms keep their tag, so a subnet and a peer
    address that happen to share text never alias.)
    """
    ids: Dict[Tuple[str, str], int] = {}
    return tuple(
        ids.setdefault(atom, len(ids))
        for atom in (*atoms1, *atoms2)
    )


def pair_signature(
    template_id1: str,
    template1: DeviceTemplate,
    template_id2: str,
    template2: DeviceTemplate,
) -> Tuple[str, str, Tuple[int, ...]]:
    """The replay-equivalence key of an unordered device pair.

    Pairs with equal signatures have equal difference counts (the
    soundness theorem in the module docstring).  Counts are symmetric,
    so the signature is orientation-canonical: distinct template ids
    order by id; equal ids take the lexicographically-smaller pattern
    of the two orientations.
    """
    if template_id1 > template_id2:
        template_id1, template1, template_id2, template2 = (
            template_id2,
            template2,
            template_id1,
            template1,
        )
    if template_id1 == template_id2:
        pattern = min(
            pair_pattern(template1.atom_sequence, template2.atom_sequence),
            pair_pattern(template2.atom_sequence, template1.atom_sequence),
        )
    else:
        pattern = pair_pattern(
            template1.atom_sequence, template2.atom_sequence
        )
    return (template_id1, template_id2, pattern)


def verify_template_class(devices: Sequence[DeviceConfig]) -> Optional[str]:
    """Statically check the replay soundness precondition for one class.

    Every member must agree with the class representative on hole
    count, hole kind sequence, and per-hole atom shape, and every hole
    kind must come from the rewritable-literal allowlist.  All of this
    is true by construction when template fingerprints are equal — the
    check guards the construction itself (a model/allowlist change that
    leaks holes into compared positions must dissolve the class, not
    silently replay wrong counts).  Returns a one-line failure detail,
    or ``None`` when the class is sound.
    """
    if not devices:
        return None
    representative = devices[0]
    base = representative.template
    for kind in base.kind_sequence:
        if kind not in _ALLOWED_KINDS:
            return (
                f"{representative.hostname}: hole kind {kind!r} is not in"
                " the rewritable-literal allowlist"
            )
    for device in devices[1:]:
        candidate = device.template
        if candidate.fingerprint != base.fingerprint:
            return (
                f"{device.hostname}: template fingerprint diverges from"
                f" {representative.hostname}"
            )
        if len(candidate.holes) != len(base.holes):
            return (
                f"{device.hostname}: {len(candidate.holes)} hole(s) vs"
                f" {len(base.holes)} on {representative.hostname}"
            )
        if candidate.kind_sequence != base.kind_sequence:
            return (
                f"{device.hostname}: hole kind sequence diverges from"
                f" {representative.hostname}"
            )
        for index, (hole, other) in enumerate(
            zip(base.holes, candidate.holes)
        ):
            if len(hole.atoms) != len(other.atoms) or tuple(
                tag for tag, _ in hole.atoms
            ) != tuple(tag for tag, _ in other.atoms):
                return (
                    f"{device.hostname}: hole {index} atom shape diverges"
                    f" from {representative.hostname}"
                )
    return None


def plan_near_pairs(
    devices: Sequence[DeviceConfig],
) -> Tuple[SymmetryPlan, List[str]]:
    """Build the compression :class:`SymmetryPlan` for a fleet.

    Step one partitions the devices by device fingerprint: the
    representative of each class is its lexicographically-smallest
    hostname, so the plan — and therefore which pairs run — is fully
    determined by the fleet's content, never by input order.  Step two
    partitions those representatives by template fingerprint, verifies
    each template class, and selects one representative pair per
    :func:`pair_signature` for analysis.  Returns the plan plus any
    fallback notes (dissolved classes); on an all-identical or
    hole-free fleet the template classes are the fingerprint classes,
    with identity substitutions.
    """
    by_host = {device.hostname: device for device in devices}
    representative: Dict[str, str] = {}
    members: Dict[str, Tuple[str, ...]] = {}
    for hostnames in partition_by_device_fingerprint(devices).values():
        group = tuple(sorted(hostnames))
        for hostname in group:
            representative[hostname] = group[0]
        members[group[0]] = group
    reps = sorted(members)
    notes: List[str] = []

    grouped: Dict[str, List[str]] = {}
    for rep in reps:
        grouped.setdefault(by_host[rep].template.fingerprint, []).append(rep)

    # template id per fingerprint-class representative; dissolved members
    # get synthetic singleton ids so every pair touching them analyzes
    # concretely (unique id => unique signature).
    template_id: Dict[str, str] = {}
    template_classes: Dict[str, Tuple[str, ...]] = {}
    dissolved = 0
    for fingerprint in sorted(grouped):
        template_members = sorted(grouped[fingerprint])
        detail = (
            verify_template_class([by_host[member] for member in template_members])
            if len(template_members) > 1
            else None
        )
        if detail is None:
            template_classes[fingerprint] = tuple(template_members)
            for member in template_members:
                template_id[member] = fingerprint
        else:
            dissolved += 1
            notes.append(
                "near-symmetry: template class verification failed"
                f" ({detail}); analyzing its {len(template_members)} device(s)"
                " concretely"
            )
            for member in template_members:
                singleton = f"dissolved:{fingerprint}:{member}"
                template_classes[singleton] = (member,)
                template_id[member] = singleton
    if dissolved:
        perf.add(FALLBACK_COUNTER, dissolved)

    analyzed: Dict[Tuple[str, str, Tuple[int, ...]], Tuple[str, str]] = {}
    replay_key: Dict[Tuple[str, str], Tuple[str, str]] = {}
    for index, first in enumerate(reps):
        for second in reps[index + 1 :]:
            signature = pair_signature(
                template_id[first],
                by_host[first].template,
                template_id[second],
                by_host[second].template,
            )
            # Pairs iterate in sorted order, so the first pair seen for
            # a signature is the deterministic analysis representative.
            target = analyzed.setdefault(signature, (first, second))
            if target != (first, second):
                replay_key[(first, second)] = target
    plan = SymmetryPlan(
        representative=representative,
        members=members,
        pair_keys=tuple(sorted(analyzed.values())),
        replay_key=replay_key,
        template_classes=template_classes,
    )
    return plan, notes


_IP_TOKEN = re.compile(r"(?<![\d.])(?:\d{1,3}\.){3}\d{1,3}(?![\d.])")
_HOST_PLACEHOLDER = "\x00host\x00"
_IP_PLACEHOLDER = "\x00ip\x00"


def raw_substitution(
    device1: DeviceConfig, device2: DeviceConfig
) -> Optional[Dict[str, str]]:
    """The literal-rewrite map carrying ``device1``'s text to ``device2``'s.

    Both raw configurations are tokenized into IPv4 literals (hostnames
    placeholder-replaced first); if the surrounding skeletons are
    byte-identical, zipping the literal streams yields the raw-text
    substitution — covering source spans, which quote raw lines.  The
    devices' template-hole substitutions are merged in on top: model
    literals are *normalized* (an interface address loses its host bits
    when masked to its subnet), so structural components mention forms
    that never appear in the raw text.  Hostname and filename entries
    complete the map.  Returns ``None`` when the skeletons diverge, the
    templates diverge, or one literal would need two images — the pair
    is not a pure substitution instance and must not be replayed at the
    report level.
    """
    text1 = "\n".join(device1.raw_lines).replace(
        device1.hostname, _HOST_PLACEHOLDER
    )
    text2 = "\n".join(device2.raw_lines).replace(
        device2.hostname, _HOST_PLACEHOLDER
    )
    if _IP_TOKEN.sub(_IP_PLACEHOLDER, text1) != _IP_TOKEN.sub(
        _IP_PLACEHOLDER, text2
    ):
        return None
    mapping: Dict[str, str] = {}
    for source, target in zip(
        _IP_TOKEN.findall(text1), _IP_TOKEN.findall(text2)
    ):
        if mapping.setdefault(source, target) != target:
            return None
    template1 = device1.template
    template2 = device2.template
    if template1.fingerprint != template2.fingerprint:
        return None
    for hole1, hole2 in zip(template1.holes, template2.holes):
        pairs = [(hole1.value, hole2.value)]
        pairs.extend(
            (value1, value2)
            for (_, value1), (_, value2) in zip(hole1.atoms, hole2.atoms)
        )
        for source, target in pairs:
            if mapping.setdefault(source, target) != target:
                return None
            if "/" in source and "/" in target:
                # Prefix-valued literals also surface as bare addresses
                # in rendered components; map that form too.
                bare1 = source.partition("/")[0]
                bare2 = target.partition("/")[0]
                if mapping.setdefault(bare1, bare2) != bare2:
                    return None
    mapping[device1.hostname] = device2.hostname
    mapping[device1.filename] = device2.filename
    return mapping


def replay_report_dict(report: Dict, mapping: Dict[str, str]) -> Dict:
    """Rewrite every literal of a serialized report through ``mapping``.

    Applies one longest-first alternation pass over the JSON encoding —
    word-ish boundary guards keep ``10.0.0.1`` from matching inside
    ``10.0.0.10`` and a hostname from matching inside its filename —
    so diff entries, source spans, and localized headers are rewritten
    coherently in one step.  Swapping maps (``a -> b, b -> a``) are
    safe: each occurrence is consumed exactly once.
    """
    identity = {key for key, value in mapping.items() if key == value}
    keys = sorted(
        (key for key in mapping if key not in identity),
        key=len,
        reverse=True,
    )
    if not keys:
        return json.loads(json.dumps(report))
    pattern = re.compile(
        "|".join(
            f"(?<![\\w.]){re.escape(key)}(?![\\w.])" for key in keys
        )
    )
    text = pattern.sub(
        lambda match: mapping[match.group(0)], json.dumps(report)
    )
    return json.loads(text)
