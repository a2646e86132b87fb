"""Tests for the campion CLI."""

import pytest

from repro.cli import main
from repro.workloads.figure1 import (
    CISCO_FIGURE1,
    CISCO_STATIC_SECTION2,
    JUNIPER_FIGURE1,
    JUNIPER_STATIC_SECTION2,
)


@pytest.fixture()
def config_files(tmp_path):
    cisco = tmp_path / "cisco.cfg"
    juniper = tmp_path / "juniper.cfg"
    cisco.write_text(CISCO_FIGURE1)
    juniper.write_text(JUNIPER_FIGURE1)
    return str(cisco), str(juniper)


class TestParse:
    def test_summary(self, config_files, capsys):
        cisco, _ = config_files
        assert main(["parse", cisco]) == 0
        output = capsys.readouterr().out
        assert "cisco_router" in output
        assert "route maps:      1" in output

    def test_explicit_dialect(self, config_files, capsys):
        _, juniper = config_files
        assert main(["--dialect", "juniper", "parse", juniper]) == 0
        assert "juniper_router" in capsys.readouterr().out


class TestCompare:
    def test_differences_exit_code_and_report(self, config_files, capsys):
        cisco, juniper = config_files
        assert main(["compare", cisco, juniper]) == 1
        output = capsys.readouterr().out
        assert "Included Prefixes" in output
        assert "10.9.0.0/16 : 16-32" in output
        assert "parse" in output and "diff" in output  # timing line

    def test_equivalent_exit_zero(self, tmp_path, capsys):
        first = tmp_path / "a.cfg"
        second = tmp_path / "b.cfg"
        first.write_text(CISCO_FIGURE1)
        second.write_text(CISCO_FIGURE1)
        assert main(["compare", str(first), str(second)]) == 0
        assert "behaviorally equivalent" in capsys.readouterr().out


class TestBaseline:
    def test_route_map_counterexample(self, config_files, capsys):
        cisco, juniper = config_files
        assert main(["baseline", cisco, juniper]) == 1
        output = capsys.readouterr().out
        assert "route map POL" in output
        assert "dstIp" in output

    def test_static_counterexample(self, tmp_path, capsys):
        cisco = tmp_path / "c.cfg"
        juniper = tmp_path / "j.cfg"
        cisco.write_text(CISCO_STATIC_SECTION2)
        juniper.write_text(JUNIPER_STATIC_SECTION2)
        assert main(["baseline", str(cisco), str(juniper)]) == 1
        output = capsys.readouterr().out
        assert "static routes:" in output
        assert "10.1.1.2" in output

    def test_no_difference(self, tmp_path, capsys):
        first = tmp_path / "a.cfg"
        second = tmp_path / "b.cfg"
        first.write_text(CISCO_FIGURE1)
        second.write_text(CISCO_FIGURE1)
        assert main(["baseline", str(first), str(second)]) == 0
        assert "no differences" in capsys.readouterr().out


class TestFleet:
    def test_outliers_detected(self, tmp_path, capsys):
        from repro.workloads.acl_gen import random_rules, render_cisco_acl
        import random as _random

        rules = random_rules(20, _random.Random(0))
        paths = []
        for index in range(3):
            path = tmp_path / f"gw{index}.cfg"
            path.write_text(render_cisco_acl("P", rules, hostname=f"gw{index}"))
            paths.append(str(path))
        # corrupt one device: flip the first rule's action
        corrupted = (tmp_path / "gw2.cfg").read_text().replace(
            " permit ", " deny ", 1
        )
        (tmp_path / "gw2.cfg").write_text(corrupted)
        assert main(["fleet"] + paths) == 1
        output = capsys.readouterr().out
        assert "outliers: 1" in output
        assert "gw2" in output

    def test_clean_fleet_exit_zero(self, tmp_path, capsys):
        from repro.workloads.acl_gen import random_rules, render_cisco_acl
        import random as _random

        rules = random_rules(15, _random.Random(1))
        paths = []
        for index in range(3):
            path = tmp_path / f"gw{index}.cfg"
            path.write_text(render_cisco_acl("P", rules, hostname=f"gw{index}"))
            paths.append(str(path))
        assert main(["fleet"] + paths) == 0


class TestExitCodes:
    """The scripting contract: 0 equivalent, 1 differences, 2 usage or
    parse error, 3 partial/degraded — and never a traceback."""

    BROKEN = CISCO_FIGURE1 + "\nroute-map BROKEN permit\n match ip address prefix-list\n"

    def test_missing_file_exits_two(self, capsys):
        assert main(["compare", "nope.cfg", "also-nope.cfg"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("campion: error:")
        assert "nope.cfg" in err
        assert "Traceback" not in err

    def test_empty_file_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.cfg"
        empty.write_text("   \n\n")
        assert main(["parse", str(empty)]) == 2
        assert "empty configuration" in capsys.readouterr().err

    def test_strict_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(self.BROKEN)
        assert main(["--strict", "parse", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err and "Traceback" not in err

    def test_lenient_parse_exits_three_with_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(self.BROKEN)
        assert main(["parse", str(bad)]) == 3
        captured = capsys.readouterr()
        assert "route maps:      1" in captured.out  # healthy stanzas parsed
        assert "error: parse error" in captured.err

    def test_lenient_compare_exits_three(self, tmp_path, capsys):
        first = tmp_path / "a.cfg"
        second = tmp_path / "b.cfg"
        first.write_text(self.BROKEN)
        second.write_text(
            self.BROKEN.replace("hostname cisco_router", "hostname other")
        )
        assert main(["compare", str(first), str(second)]) == 3
        assert "lenient parsing" in capsys.readouterr().out

    def test_node_limit_exits_three(self, config_files, capsys):
        cisco, juniper = config_files
        assert main(["compare", "--node-limit", "50", cisco, juniper]) == 3
        assert "analysis aborted" in capsys.readouterr().out

    def test_fleet_duplicate_hostname_exits_two(self, tmp_path, capsys):
        first = tmp_path / "a.cfg"
        second = tmp_path / "b.cfg"
        first.write_text(CISCO_FIGURE1)
        second.write_text(CISCO_FIGURE1)
        assert main(["fleet", str(first), str(second)]) == 2
        err = capsys.readouterr().err
        assert "hostnames must be unique" in err
        assert "cisco_router" in err

    def test_fleet_missing_file_exits_two(self, tmp_path, capsys):
        first = tmp_path / "a.cfg"
        first.write_text(CISCO_FIGURE1)
        assert main(["fleet", str(first), "missing.cfg"]) == 2
        assert "missing.cfg" in capsys.readouterr().err

    def test_fleet_too_few_devices_exits_two(self, config_files, capsys):
        cisco, _ = config_files
        assert main(["fleet", cisco]) == 2
        assert "at least two devices" in capsys.readouterr().err

    def test_fleet_unknown_reference_exits_two(self, config_files, capsys):
        cisco, juniper = config_files
        assert main(["fleet", "--reference", "ghost", cisco, juniper]) == 2
        assert "ghost" in capsys.readouterr().err

    def test_fleet_compress_exact_exits_two(self, config_files, capsys):
        cisco, juniper = config_files
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--compress", "exact", cisco, juniper])
        assert excinfo.value.code == 2
        assert "invalid choice: 'exact'" in capsys.readouterr().err


class TestWarmCacheBytes:
    """A warm run replays cached localized differences; its ``--json``
    stdout must be byte-identical to the cold run's, key order included.
    The workloads have localized outliers: a fleet without differences
    replays nothing and cannot show key-order drift."""

    def _cold_and_warm(self, argv, cache_dir, capsys):
        outputs = []
        for _ in range(2):
            main(["--cache-dir", str(cache_dir)] + argv + ["--json"])
            captured = capsys.readouterr()
            outputs.append(captured.out)
        assert "misses=0" in captured.err  # the second run was warm
        return outputs

    def test_fleet_with_outliers(self, tmp_path, capsys, monkeypatch):
        from repro.workloads import datacenter

        texts = {}
        monkeypatch.setattr(
            datacenter,
            "parse_cisco",
            lambda text, filename, *args, **kwargs: texts.setdefault(filename, text),
        )
        datacenter.parameterized_clos_fleet(count=6, roles=3, rule_count=6)
        monkeypatch.undo()
        paths = []
        for filename, text in texts.items():
            path = tmp_path / filename
            path.write_text(text)
            paths.append(str(path))
        cold, warm = self._cold_and_warm(
            ["fleet"] + paths, tmp_path / "cache", capsys
        )
        assert '"extra_localizations"' in cold
        assert cold == warm

    def test_acl_pair(self, tmp_path, capsys):
        from repro.workloads.acl_gen import generate_acl_pair

        pair = generate_acl_pair(rule_count=20, differences=2, seed=0)
        cisco = tmp_path / "cisco-gw.cfg"
        juniper = tmp_path / "juniper-gw.cfg"
        cisco.write_text(pair.cisco_text)
        juniper.write_text(pair.juniper_text)
        cold, warm = self._cold_and_warm(
            ["compare", str(cisco), str(juniper)], tmp_path / "cache", capsys
        )
        assert '"extra_localizations"' in cold
        assert cold == warm


class TestFleetSeedingBytes:
    """The seeded default fleet path prints the same ``--json`` bytes
    cold, warm, after a one-device edit, and under the per-pair ``bdd``
    backend and ``--compress off`` — on an all-distinct gateway fleet,
    where every matrix pair is seeded from the shared atom universe."""

    def test_gateway_fleet_is_byte_identical(self, tmp_path, capsys, monkeypatch):
        from repro.workloads import datacenter

        texts = {}

        def capture(text, filename, *args, **kwargs):
            texts[filename] = text

        monkeypatch.setattr(datacenter, "parse_cisco", capture)
        monkeypatch.setattr(datacenter, "parse_juniper", capture)
        datacenter.gateway_fleet(16, 15)
        monkeypatch.undo()
        paths = []
        for filename, text in sorted(texts.items()):
            path = tmp_path / filename
            path.write_text(text)
            paths.append(str(path))
        cache = ["--cache-dir", str(tmp_path / "cache")]

        def fleet(*argv):
            assert main(list(argv) + ["fleet", "--json"] + paths) == 1
            captured = capsys.readouterr()
            return captured.out, captured.err

        cold, _ = fleet(*cache)
        warm, warm_err = fleet(*cache)
        assert "misses=0" in warm_err
        assert warm == cold
        assert fleet("--no-cache", "--set-backend", "bdd")[0] == cold
        assert main(["--no-cache", "fleet", "--json", "--compress", "off"]
                    + paths) == 1
        assert capsys.readouterr().out == cold

        edited = tmp_path / "gw0.cfg"
        edited.write_text(edited.read_text().replace(" permit ", " deny ", 1))
        after_edit, _ = fleet(*cache)
        assert after_edit != cold
        # The incremental run folded only the edited device's pairs; a
        # from-scratch run must print the same bytes.
        assert after_edit == fleet("--no-cache")[0]


class TestTranslate:
    def test_translate_verified(self, tmp_path, capsys):
        from repro.workloads.datacenter import _cisco_tor

        source = tmp_path / "tor.cfg"
        source.write_text(_cisco_tor(1, 2))
        output = tmp_path / "tor-junos.cfg"
        code = main(
            ["translate", str(source), "--target", "juniper", "--output", str(output)]
        )
        assert code == 0
        assert "policy-statement SPINE-OUT" in output.read_text()

    def test_translate_to_stdout(self, config_files, capsys):
        cisco, _ = config_files
        code = main(["translate", cisco, "--target", "juniper"])
        output = capsys.readouterr().out
        assert "policy-statement POL" in output
        assert code in (0, 1)  # send-community may be inexpressible
