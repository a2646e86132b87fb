"""Supervisor behavior: validation, classification, ignored keys."""

import pytest

from repro.core import parallel
from repro.service.supervisor import JobError, Supervisor


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

    def test_boolean_compress_matches_mode_names(self, small_fleet):
        configs, _, _ = small_fleet
        supervisor = Supervisor(cache=None)

        def run(compress):
            return supervisor.run_job(
                {"configs": configs, "compress": compress}, None
            )

        for flag, mode in ((True, "near"), (False, "off")):
            by_flag, by_name = run(flag), run(mode)
            assert by_flag["report"] == by_name["report"]
            assert by_flag["symmetry"] == by_name["symmetry"]
        assert run(True)["report"] == run(False)["report"]
        assert run(True)["symmetry"]["compressed"] is True
        assert "mode" not in run(True)["symmetry"]

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

    def test_failing_pair_not_fatal(self, small_fleet, monkeypatch):
        """A pair whose analysis keeps raising (through its retry too)
        lands in the report's failed_pairs; the job still succeeds."""
        configs, devices, _ = small_fleet
        # the reference device's pairs are healed by the report phase,
        # so doom a pair that excludes the medoid
        baseline = Supervisor(cache=None).run_job({"configs": configs}, None)
        reference = baseline["report"]["reference"]
        hostnames = sorted(
            device.hostname
            for device in devices
            if device.hostname != reference
        )
        doomed = {hostnames[0], hostnames[1]}
        real = parallel._count_pair

        def fail_pair(task):
            if {task[0].hostname, task[1].hostname} == doomed:
                raise RuntimeError("injected pair failure")
            return real(task)

        monkeypatch.setattr(parallel, "_count_pair", fail_pair)
        # The fault targets hostnames; symmetry compression would expand
        # the doomed pair from its representatives without running it.
        result = Supervisor(cache=None).run_job(
            {"configs": configs, "compress": False}, None
        )
        assert result["report"]["partial"] is True
        assert result["report"]["reference"] == reference
        assert result["report"]["failed_pairs"] == [
            [
                *sorted(doomed),
                "error: RuntimeError: injected pair failure (after retry)",
            ]
        ]
