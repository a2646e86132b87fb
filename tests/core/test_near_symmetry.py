"""Tests for near-symmetry fleet compression (template-signature replay).

The invariant: ``compare_fleet(compress="near")`` produces a report —
and a serialized form — byte-identical to the uncompressed run, on
fleets where fingerprint classes find nothing (the parameterized Clos:
unique loopbacks/subnets/peers per device).
The supporting machinery (pair patterns, signature canonicalization,
class verification with dissolution, the replay plan, raw substitutions
and full-report replay, and the fallback-to-concrete path for failed
representative pairs) is covered alongside.  The oracle's
``near-symmetry`` selfcheck generator checks the same identities on
randomized, shrunken fleets.
"""

import json
import random

import pytest

from repro import perf
from repro.core import compare_fleet, fleet_report_to_dict, parallel
from repro.core.config_diff import config_diff
from repro.core.near_symmetry import (
    FALLBACK_COUNTER,
    SymmetryPlan,
    pair_pattern,
    pair_signature,
    plan_near_pairs,
    raw_substitution,
    replay_report_dict,
    verify_template_class,
)
from repro.core.parallel import PairOutcome
from repro.core.serialize import report_to_dict
from repro.model.fingerprint import (
    TemplateHole,
    partition_by_device_fingerprint,
)
from repro.parsers import parse_cisco
from repro.workloads.datacenter import (
    parameterized_clos_fleet,
    templated_clos_fleet,
)
from repro.workloads.figure1 import CISCO_FIGURE1


def _named(text, hostname):
    return parse_cisco(
        text.replace("hostname cisco_router", f"hostname {hostname}"),
        f"{hostname}.cfg",
    )


class _FakeTemplate:
    def __init__(self, holes):
        self.fingerprint = "fp"
        self.holes = tuple(holes)

    @property
    def kind_sequence(self):
        return tuple(hole.kind for hole in self.holes)

    @property
    def atom_sequence(self):
        return tuple(atom for hole in self.holes for atom in hole.atoms)


def _template(*atom_values, kind="bgp-peer"):
    return _FakeTemplate(
        TemplateHole(kind=kind, value=v, atoms=(("peer", v),))
        for v in atom_values
    )


class TestPairPattern:
    def test_first_occurrence_renaming(self):
        assert pair_pattern(
            [("a", "1"), ("a", "2")], [("a", "1"), ("a", "3")]
        ) == (0, 1, 0, 2)

    def test_tags_never_alias(self):
        # Equal text under different tags must stay distinct atoms.
        distinct = pair_pattern([("subnet", "x")], [("peer", "x")])
        shared = pair_pattern([("peer", "x")], [("peer", "x")])
        assert distinct == (0, 1)
        assert shared == (0, 0)

    def test_literals_are_abstracted(self):
        assert pair_pattern(
            [("p", "10.0.0.1")], [("p", "10.0.0.1")]
        ) == pair_pattern([("p", "10.9.9.9")], [("p", "10.9.9.9")])


class TestPairSignature:
    def test_distinct_template_ids_order_by_id(self):
        t1, t2 = _template("a"), _template("b")
        forward = pair_signature("t-low", t1, "t-high", t2)
        backward = pair_signature("t-high", t2, "t-low", t1)
        assert forward == backward
        assert forward[0] == "t-high"

    def test_equal_ids_take_min_orientation(self):
        t1, t2 = _template("a", "b"), _template("b", "c")
        assert pair_signature("t", t1, "t", t2) == pair_signature(
            "t", t2, "t", t1
        )

    def test_different_equality_patterns_get_different_signatures(self):
        shared = _template("a")
        also_shared = _template("a")
        fresh = _template("z")
        assert pair_signature("t", shared, "t", also_shared) != pair_signature(
            "t", shared, "t", fresh
        )


class TestVerifyTemplateClass:
    def _fleet(self):
        devices, _ = parameterized_clos_fleet(
            count=4, roles=1, rule_count=4, seed=0
        )
        return devices

    def test_real_template_class_verifies(self):
        assert verify_template_class(self._fleet()) is None
        assert verify_template_class([]) is None

    def test_disallowed_hole_kind_is_reported(self, monkeypatch):
        devices = self._fleet()
        bad = _FakeTemplate(
            [TemplateHole(kind="acl-literal", value="10.0.0.1")]
        )
        monkeypatch.setattr(type(devices[0]), "template", property(lambda self: bad))
        detail = verify_template_class(devices)
        assert detail is not None
        assert "allowlist" in detail

    def test_atom_shape_divergence_is_reported(self):
        devices = self._fleet()[:2]
        first, second = devices

        class Diverged:
            fingerprint = first.template.fingerprint
            holes = tuple(
                TemplateHole(kind=h.kind, value=h.value, atoms=())
                for h in first.template.holes
            )
            kind_sequence = first.template.kind_sequence
            atom_sequence = ()

        second.__dict__["_template"] = Diverged()
        detail = verify_template_class([first, second])
        assert detail is not None
        assert "atom shape" in detail


class TestPlanNearPairs:
    def test_all_identical_fleet_degenerates_to_exact_plan(self):
        # On a clone fleet the template classes equal the fingerprint
        # classes, with identity substitutions.
        fleet = [_named(CISCO_FIGURE1, n) for n in ("a", "b", "c")]
        plan, notes = plan_near_pairs(fleet)
        assert notes == []
        assert plan.pair_keys == ()
        assert plan.replay_key == {}
        exact = partition_by_device_fingerprint(fleet)
        assert plan.members == {"a": ("a", "b", "c")}
        assert list(plan.template_classes.values()) == [("a",)]
        assert len(plan.template_classes) == len(
            {fleet[0].template.fingerprint}
        ) == len(exact)
        subs = {d.template.substitution for d in fleet}
        assert len(subs) == 1  # identity: clones share one substitution

    def test_parameterized_fleet_analyzes_one_pair_per_signature(self):
        devices, role_of = parameterized_clos_fleet(
            count=8, roles=2, rule_count=4, seed=1
        )
        # No two devices are byte-identical ...
        assert len(partition_by_device_fingerprint(devices)) == 8
        plan, notes = plan_near_pairs(devices)
        assert notes == []
        # ... but only 2 template classes -> 3 signatures (two intra-
        # role, one cross-role) out of 28 matrix pairs.
        assert len(plan.template_classes) == 2
        assert len(plan.pair_keys) == 3
        assert plan.class_count == 2
        # every non-analyzed representative pair replays an analyzed one
        replayed = set(plan.replay_key.values())
        assert replayed <= set(plan.pair_keys)
        assert len(plan.replay_key) == 28 - 3

    def test_dissolved_class_falls_back_to_concrete(self, monkeypatch):
        from repro.core import near_symmetry

        devices, _ = parameterized_clos_fleet(
            count=4, roles=1, rule_count=4, seed=0
        )
        monkeypatch.setattr(
            near_symmetry,
            "verify_template_class",
            lambda members: "injected verification failure",
        )
        base = perf.REGISTRY.counters.get(FALLBACK_COUNTER, 0)
        plan, notes = plan_near_pairs(devices)
        assert perf.REGISTRY.counters.get(FALLBACK_COUNTER, 0) == base + 1
        assert len(notes) == 1
        assert "injected verification failure" in notes[0]
        # every pair analyzes concretely: all 6 pairs, no replay
        assert len(plan.pair_keys) == 6
        assert plan.replay_key == {}

    def test_expand_near_replays_counts(self):
        devices, _ = parameterized_clos_fleet(
            count=4, roles=1, rule_count=4, seed=0
        )
        hostnames = sorted(d.hostname for d in devices)
        plan, _ = plan_near_pairs(devices)
        (analyzed,) = plan.pair_keys
        outcome = PairOutcome(index=0, status="ok", result=5)
        matrix, failed, fallback = plan.expand_near(
            hostnames, {analyzed: outcome}
        )
        assert failed == {} and fallback == []
        assert len(matrix) == 6
        assert set(matrix.values()) == {5}


def _reference_expand_near(plan, hostnames, outcomes):
    """The per-fleet-pair expansion loop, kept as the brute-force
    reference: every pair recomputes its representative pair and
    looks its outcome up again."""
    matrix, failed, fallback = {}, {}, []
    ordered = sorted(hostnames)
    for index, first in enumerate(ordered):
        for second in ordered[index + 1 :]:
            key = (first, second)
            rep1 = plan.representative[first]
            rep2 = plan.representative[second]
            if rep1 == rep2:
                matrix[key] = 0
                continue
            rep_key = (min(rep1, rep2), max(rep1, rep2))
            replay = plan.replay_key.get(rep_key, rep_key)
            outcome = outcomes[replay]
            if outcome.ok:
                matrix[key] = outcome.result
            elif rep_key == replay:
                failed[key] = outcome.describe()
            else:
                fallback.append(key)
    return matrix, failed, fallback


def _random_outcome(rng, index):
    roll = rng.random()
    if roll < 0.5:
        return PairOutcome(index, "ok", result=rng.randint(0, 9))
    if roll < 0.7:
        return PairOutcome(index, "error", error=f"injected {index}")
    # a replayed (retried) outcome, healed or not
    if roll < 0.85:
        return PairOutcome(index, "ok", result=rng.randint(0, 9), retried=True)
    return PairOutcome(index, "timeout", error="slow", retried=True)


def _random_near_plan(rng):
    """A near plan over random exact classes, with a random subset of
    representative pairs analyzed and the rest replaying one of them."""
    hostnames = [f"h{index:02d}" for index in range(rng.randint(2, 16))]
    groups = []
    for hostname in rng.sample(hostnames, len(hostnames)):
        if groups and rng.random() < 0.35:
            rng.choice(groups).append(hostname)
        else:
            groups.append([hostname])
    representative, members = {}, {}
    for group in groups:
        group = tuple(sorted(group))
        members[group[0]] = group
        for hostname in group:
            representative[hostname] = group[0]
    reps = sorted(members)
    rep_pairs = [
        (first, second)
        for index, first in enumerate(reps)
        for second in reps[index + 1 :]
    ]
    analyzed = [pair for pair in rep_pairs if rng.random() < 0.3]
    if rep_pairs and not analyzed:
        analyzed = [rng.choice(rep_pairs)]
    replay_key = {
        pair: rng.choice(analyzed) for pair in rep_pairs if pair not in analyzed
    }
    plan = SymmetryPlan(
        representative=representative,
        members=members,
        pair_keys=tuple(analyzed),
        replay_key=replay_key,
    )
    outcomes = {
        pair: _random_outcome(rng, index) for index, pair in enumerate(analyzed)
    }
    # input order must not matter either
    return plan, rng.sample(hostnames, len(hostnames)), outcomes


class TestExpandNearReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_generated_plans_match_reference(self, seed):
        plan, hostnames, outcomes = _random_near_plan(random.Random(seed))
        matrix, failed, fallback = plan.expand_near(hostnames, outcomes)
        ref_matrix, ref_failed, ref_fallback = _reference_expand_near(
            plan, hostnames, outcomes
        )
        assert list(matrix.items()) == list(ref_matrix.items())
        assert list(failed.items()) == list(ref_failed.items())
        assert fallback == ref_fallback

    def test_generated_plans_cover_every_branch(self):
        seen = set()
        for seed in range(40):
            plan, hostnames, outcomes = _random_near_plan(random.Random(seed))
            matrix, failed, fallback = plan.expand_near(hostnames, outcomes)
            seen.update(
                name
                for name, present in (
                    ("zero", 0 in matrix.values()),
                    ("failed", failed),
                    ("fallback", fallback),
                    ("retried", any(o.retried for o in outcomes.values())),
                )
                if present
            )
        assert seen == {"zero", "failed", "fallback", "retried"}

    @pytest.mark.parametrize("seed", range(3))
    def test_planned_fleet_matches_reference(self, seed):
        devices, _ = parameterized_clos_fleet(
            count=9, roles=3, rule_count=4, seed=seed
        )
        clone = devices[0]
        devices.append(
            parse_cisco(
                "\n".join(clone.raw_lines).replace(clone.hostname, "pclosxx"),
                "pclosxx.cfg",
            )
        )
        plan, _ = plan_near_pairs(devices)
        rng = random.Random(seed)
        outcomes = {
            pair: _random_outcome(rng, index)
            for index, pair in enumerate(plan.pair_keys)
        }
        hostnames = [device.hostname for device in devices]
        assert plan.expand_near(hostnames, outcomes) == _reference_expand_near(
            plan, hostnames, outcomes
        )


class TestThreeModeByteIdentity:
    """The identity that once spanned three modes now spans two: the
    fingerprint classes of the retired ``exact`` mode are step one of
    near planning, so ``near`` must equal ``off``."""

    def _identical(self, devices):
        serialized = {
            mode: fleet_report_to_dict(
                compare_fleet(devices, workers=1, compress=mode)
            )
            for mode in ("off", "near")
        }
        assert serialized["near"] == serialized["off"]

    def test_parameterized_clos_fleet(self):
        devices, _ = parameterized_clos_fleet(
            count=8, roles=2, rule_count=6, seed=2
        )
        self._identical(devices)

    def test_templated_clos_fleet(self):
        devices, _ = templated_clos_fleet(
            count=8, roles=2, rule_count=6, seed=3, vendors=2
        )
        self._identical(devices)

    def test_clone_fleet(self):
        self._identical(
            [_named(CISCO_FIGURE1, n) for n in ("a", "b", "c", "d")]
        )

    def test_near_stats_report_compression(self):
        devices, _ = parameterized_clos_fleet(
            count=8, roles=2, rule_count=6, seed=2
        )
        stats = compare_fleet(devices, workers=1, compress="near").symmetry
        assert stats.classes == 2
        assert stats.analyzed_pairs == 3
        assert stats.total_pairs == 28
        assert stats.fallback_pairs == 0

    def test_fault_free_run_emits_no_near_notes(self):
        devices, _ = parameterized_clos_fleet(
            count=6, roles=2, rule_count=4, seed=0
        )
        report = compare_fleet(devices, workers=1, compress="near")
        assert not any("near-symmetry" in note for note in report.notes)


class TestReplayIdentity:
    def test_raw_substitution_maps_clone_literals(self):
        devices, role_of = parameterized_clos_fleet(
            count=6, roles=2, rule_count=4, seed=4
        )
        by_role = {}
        for device in devices:
            by_role.setdefault(role_of[device.hostname], []).append(device)
        group = next(g for g in by_role.values() if len(g) >= 2)
        first, second = sorted(group, key=lambda d: d.hostname)[:2]
        mapping = raw_substitution(first, second)
        assert mapping is not None
        assert mapping[first.hostname] == second.hostname
        assert mapping[first.filename] == second.filename

    def test_raw_substitution_rejects_cross_template_pairs(self):
        devices, role_of = parameterized_clos_fleet(
            count=4, roles=2, rule_count=4, seed=4
        )
        roles = {role_of[d.hostname] for d in devices}
        assert len(roles) == 2
        first = next(d for d in devices if role_of[d.hostname] == min(roles))
        second = next(d for d in devices if role_of[d.hostname] == max(roles))
        assert raw_substitution(first, second) is None

    def test_full_report_replays_through_substitution(self):
        # The soundness claim at report granularity: the analyzed
        # pair's report, rewritten through the two raw substitutions,
        # is byte-identical to the replayed pair's live report.
        devices, role_of = parameterized_clos_fleet(
            count=8, roles=2, rule_count=6, seed=5
        )
        by_role = {}
        for device in devices:
            by_role.setdefault(role_of[device.hostname], []).append(device)
        group = sorted(
            next(g for g in by_role.values() if len(g) >= 4),
            key=lambda d: d.hostname,
        )
        first, first_image, second, second_image = group[:4]
        sub1 = raw_substitution(first, first_image)
        sub2 = raw_substitution(second, second_image)
        assert sub1 is not None and sub2 is not None
        mapping = dict(sub1)
        for key, value in sub2.items():
            assert mapping.setdefault(key, value) == value
        replayed = replay_report_dict(
            report_to_dict(config_diff(first, second)), mapping
        )
        live = report_to_dict(config_diff(first_image, second_image))
        assert replayed == live

    def test_identity_mapping_is_a_deep_copy(self):
        report = {"a": [{"b": "10.0.0.1"}]}
        replayed = replay_report_dict(report, {"10.0.0.1": "10.0.0.1"})
        assert replayed == report
        assert replayed is not report
        assert replayed["a"][0] is not report["a"][0]

    def test_longest_first_and_boundary_guards(self):
        report = {"x": "10.0.0.1 10.0.0.10 h1 h1.cfg"}
        mapping = {
            "10.0.0.1": "10.9.9.1",
            "10.0.0.10": "10.9.9.10",
            "h1": "h2",
            "h1.cfg": "h2.cfg",
        }
        assert replay_report_dict(report, mapping) == {
            "x": "10.9.9.1 10.9.9.10 h2 h2.cfg"
        }

    def test_swapping_mapping_is_single_pass(self):
        report = {"x": "10.0.0.1 vs 10.0.0.2"}
        mapping = {"10.0.0.1": "10.0.0.2", "10.0.0.2": "10.0.0.1"}
        assert replay_report_dict(report, mapping) == {
            "x": "10.0.0.2 vs 10.0.0.1"
        }


class TestNearFallback:
    def test_failed_representative_pair_falls_back_for_members_only(
        self, monkeypatch
    ):
        """Satellite: a hostname-targeted fault on the analyzed pair of
        a near-symmetric class fails that pair alone; every member pair
        that would have replayed it is re-analyzed concretely."""
        devices, _ = parameterized_clos_fleet(
            count=6, roles=2, rule_count=4, seed=6
        )
        plan, _ = plan_near_pairs(devices)
        # pick an analyzed pair that other pairs actually replay
        target = next(
            pair
            for pair in plan.pair_keys
            if any(v == pair for v in plan.replay_key.values())
        )
        real = parallel._count_pair

        def poisoned(task):
            if {task[0].hostname, task[1].hostname} == set(target):
                raise RuntimeError("injected crash")
            return real(task)

        monkeypatch.setattr(parallel, "_count_pair", poisoned)
        base = perf.REGISTRY.counters.get(FALLBACK_COUNTER, 0)
        report = compare_fleet(devices, workers=1, compress="near")
        fallback_count = perf.REGISTRY.counters.get(FALLBACK_COUNTER, 0) - base

        expected_fallback = sum(
            1 for v in plan.replay_key.values() if v == target
        )
        assert fallback_count == expected_fallback
        assert any(
            "fell back to concrete analysis" in note for note in report.notes
        )
        assert report.symmetry.fallback_pairs == expected_fallback

        # the fault stays on its own pair (possibly healed by the
        # reference phase if it involves the medoid) — never spreads
        uncompressed = compare_fleet(
            devices, workers=1, compress="off"
        )
        assert report.failed_pairs == uncompressed.failed_pairs
        assert set(report.failed_pairs) <= {target}
        for key, count in uncompressed.matrix.items():
            assert report.matrix[key] == count

    def test_fallback_pairs_count_toward_analyzed(self, monkeypatch):
        devices, _ = parameterized_clos_fleet(
            count=4, roles=1, rule_count=4, seed=0
        )
        plan, _ = plan_near_pairs(devices)
        (target,) = plan.pair_keys
        real = parallel._count_pair

        def poisoned(task):
            if {task[0].hostname, task[1].hostname} == set(target):
                raise RuntimeError("injected crash")
            return real(task)

        monkeypatch.setattr(parallel, "_count_pair", poisoned)
        report = compare_fleet(devices, workers=1, compress="near")
        stats = report.symmetry
        assert stats.fallback_pairs == 5  # 6 pairs, 1 analyzed, 5 replayed
        assert stats.analyzed_pairs == 1 + 5
        # The target pair involves the medoid, so the reference phase
        # re-runs and heals it — the matrix ends up complete, exactly
        # like the uncompressed run under the same fault.
        uncompressed = compare_fleet(devices, workers=1, compress="off")
        assert report.failed_pairs == uncompressed.failed_pairs == {}
        assert report.matrix == uncompressed.matrix


class TestSupervisorCompressOption:
    def test_mode_strings_and_booleans_accepted(self):
        from repro.service.supervisor import Supervisor

        assert Supervisor._compress_option({}, "compress", None) is None
        assert (
            Supervisor._compress_option({"compress": True}, "compress", None)
            == "near"
        )
        assert (
            Supervisor._compress_option({"compress": False}, "compress", None)
            == "off"
        )
        assert (
            Supervisor._compress_option(
                {"compress": " NEAR "}, "compress", None
            )
            == "near"
        )

    def test_unknown_mode_is_a_permanent_job_error(self):
        from repro.service.supervisor import JobError, Supervisor

        for mode in ("sorta", "exact"):
            with pytest.raises(JobError) as excinfo:
                Supervisor._compress_option({"compress": mode}, "compress", None)
            assert excinfo.value.permanent
            assert "'off', 'near'" in str(excinfo.value)
