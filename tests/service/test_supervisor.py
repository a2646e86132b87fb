"""Supervisor behavior: validation, classification, ignored keys."""

import pytest

from repro.core import parallel
from repro.core.near_symmetry import plan_near_pairs
from repro.service.supervisor import JobError, Supervisor

from .conftest import fleet_configs


class TestPayloadValidation:
    def test_missing_configs_is_permanent(self):
        with pytest.raises(JobError) as excinfo:
            Supervisor.validate_payload({})
        assert excinfo.value.permanent

    def test_single_config_is_permanent(self):
        with pytest.raises(JobError) as excinfo:
            Supervisor.validate_payload({"configs": [{"text": "x"}]})
        assert excinfo.value.permanent

    def test_config_without_text_is_permanent(self):
        with pytest.raises(JobError) as excinfo:
            Supervisor.validate_payload(
                {"configs": [{"text": "hostname a"}, {"name": "b.cfg"}]}
            )
        assert excinfo.value.permanent

    def test_names_defaulted(self):
        pairs = Supervisor.validate_payload(
            {"configs": [{"text": "hostname a"}, {"text": "hostname b"}]}
        )
        assert [name for name, _ in pairs] == ["config-0", "config-1"]


class TestRunJob:
    def test_happy_path_result_document(self, small_fleet):
        configs, _, expected_outliers = small_fleet
        supervisor = Supervisor(cache=None)
        result = supervisor.run_job({"configs": configs}, None)
        assert result["report"]["outliers"] == sorted(expected_outliers)
        assert set(result) == {"report", "notes", "symmetry", "cache"}

    def test_duplicate_hostnames_permanent(self, small_fleet):
        configs, _, _ = small_fleet
        supervisor = Supervisor(cache=None)
        doubled = [configs[0], configs[0]] + configs[1:]
        with pytest.raises(JobError) as excinfo:
            supervisor.run_job({"configs": doubled}, None)
        assert excinfo.value.permanent

    def test_bad_option_permanent(self, small_fleet):
        configs, _, _ = small_fleet
        supervisor = Supervisor(cache=None)
        with pytest.raises(JobError) as excinfo:
            supervisor.run_job(
                {"configs": configs, "timeout": "soon"}, None
            )
        assert excinfo.value.permanent

    def test_workers_key_is_ignored(self, small_fleet):
        configs, _, _ = small_fleet
        supervisor = Supervisor(cache=None)
        plain = supervisor.run_job({"configs": configs}, None)
        for workers in (2, "two"):
            keyed = supervisor.run_job(
                {"configs": configs, "workers": workers}, None
            )
            assert keyed["report"] == plain["report"]

    def test_set_backend_key_is_ignored(self, small_fleet):
        configs, _, _ = small_fleet
        supervisor = Supervisor(cache=None)
        plain = supervisor.run_job({"configs": configs}, None)
        keyed = supervisor.run_job(
            {"configs": configs, "set_backend": "cubes"}, None
        )
        assert keyed["report"] == plain["report"]

    def test_compress_key_is_ignored(self, small_fleet):
        """Compression is not a job option: every job runs the default
        path, whatever ``"compress"`` says."""
        configs, _, _ = small_fleet
        supervisor = Supervisor(cache=None)
        plain = supervisor.run_job({"configs": configs}, None)
        assert plain["symmetry"]["compressed"] is True
        for compress in (False, "off", "exact"):
            keyed = supervisor.run_job(
                {"configs": configs, "compress": compress}, None
            )
            assert keyed["report"] == plain["report"]
            assert keyed["symmetry"] == plain["symmetry"]

    @pytest.mark.parametrize(
        "option,message",
        [
            ({"timeout": "nan"}, "timeout must be positive, got nan"),
            ({"node_limit": 0}, "must be at least 2 (the BDD terminals), got 0"),
            ({"node_limit": -5}, "must be at least 2 (the BDD terminals), got -5"),
        ],
    )
    def test_invalid_budget_permanent(self, small_fleet, option, message):
        """The job's budgets pass the CLI's rules, not just a cast."""
        configs, _, _ = small_fleet
        with pytest.raises(JobError) as excinfo:
            Supervisor(cache=None).run_job({"configs": configs, **option}, None)
        assert excinfo.value.permanent
        assert message in str(excinfo.value)

    def test_failing_pair_not_fatal(self, monkeypatch):
        """A pair whose analysis keeps raising (through its retry too)
        lands in the report's failed_pairs; the job still succeeds."""
        configs, devices, outliers = fleet_configs(count=5, outliers=2)
        baseline = Supervisor(cache=None).run_job({"configs": configs}, None)
        reference = baseline["report"]["reference"]
        # Doom the pair of the two outliers: near-symmetry planning
        # analyzes it itself, and it excludes the medoid, whose pairs
        # the report phase would heal.
        doomed = set(outliers)
        assert tuple(sorted(doomed)) in plan_near_pairs(devices)[0].pair_keys
        real = parallel._count_pair

        def fail_pair(device1, device2, **options):
            if {device1.hostname, device2.hostname} == doomed:
                raise RuntimeError("injected pair failure")
            return real(device1, device2, **options)

        monkeypatch.setattr(parallel, "_count_pair", fail_pair)
        result = Supervisor(cache=None).run_job({"configs": configs}, None)
        assert result["report"]["partial"] is True
        assert result["report"]["reference"] == reference
        assert result["report"]["failed_pairs"] == [
            [
                *sorted(doomed),
                "error: RuntimeError: injected pair failure (after retry)",
            ]
        ]
