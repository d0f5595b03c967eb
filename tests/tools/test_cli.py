"""Unit tests: the command-line utilities."""

import pytest

from repro.tools.cli import build_parser, main


class TestPlatforms:
    def test_lists_all(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        for name in ("simT3E", "simX86", "simPOWER", "simALPHA",
                     "simIA64", "simSPARC"):
            assert name in out


class TestAvail:
    def test_full_listing(self, capsys):
        assert main(["avail", "simPOWER"]) == 0
        out = capsys.readouterr().out
        assert "PAPI_FP_OPS" in out
        assert "derived" in out
        assert "presets available" in out

    def test_available_only_filters(self, capsys):
        main(["avail", "simT3E"])
        full = capsys.readouterr().out
        main(["avail", "simT3E", "--available-only"])
        filtered = capsys.readouterr().out
        assert len(filtered.splitlines()) < len(full.splitlines())
        assert " no " not in filtered

    def test_unknown_platform_rejected(self):
        with pytest.raises(SystemExit):
            main(["avail", "simVAX"])


class TestNativeAvail:
    def test_native_table(self, capsys):
        assert main(["native-avail", "simX86"]) == 0
        out = capsys.readouterr().out
        assert "FLOPS" in out
        assert "0" in out  # the counter-0 pinning is displayed

    def test_groups_shown_on_power(self, capsys):
        main(["native-avail", "simPOWER"])
        out = capsys.readouterr().out
        assert "counter groups" in out
        assert "group 0" in out


class TestComponentAvail:
    def test_lists_all_components(self, capsys):
        assert main(["component-avail", "simX86"]) == 0
        out = capsys.readouterr().out
        assert "3 components" in out
        assert "component 0: cpu" in out
        assert "component 1: uncore" in out
        assert "component 2: energy" in out
        assert "uncore:::MEM_BW_RD" in out
        assert "energy:::PKG_ENERGY" in out

    def test_shows_mux_policy_and_capacity(self, capsys):
        main(["component-avail", "simSPARC"])
        out = capsys.readouterr().out
        assert "multiplex: no" in out      # the energy plane
        assert "multiplex: yes" in out
        assert "counters: 2" in out        # simSPARC's narrow uncore bank


class TestPapirunCmd:
    def test_runs_kernel(self, capsys):
        assert main(["papirun", "simPOWER", "dot", "--n", "500"]) == 0
        out = capsys.readouterr().out
        assert "papirun" in out and "PAPI_TOT_CYC" in out

    def test_custom_events(self, capsys):
        assert main([
            "papirun", "simIA64", "triad", "--n", "300",
            "--events", "PAPI_FP_OPS,PAPI_LD_INS",
        ]) == 0
        out = capsys.readouterr().out
        assert "PAPI_LD_INS" in out

    def test_component_events(self, capsys):
        assert main([
            "papirun", "simX86", "dot", "--n", "2000",
            "--events", "uncore:::MEM_BW_RD,PAPI_TOT_INS",
        ]) == 0
        out = capsys.readouterr().out
        assert "uncore:::MEM_BW_RD" in out
        assert "PAPI_TOT_INS" in out

    def test_multiplex_flag(self, capsys):
        assert main(["papirun", "simX86", "dot", "--n", "4000",
                     "--multiplex"]) == 0
        out = capsys.readouterr().out
        assert "multiplexed" in out

    def test_unknown_workload_errors(self, capsys):
        assert main(["papirun", "simPOWER", "fibonacci"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestCalibrateCmd:
    def test_direct_platform_exact(self, capsys):
        assert main(["calibrate", "simT3E", "--n", "500"]) == 0
        out = capsys.readouterr().out
        assert "FP_OPS error %" in out
        assert "expected FLOPs" in out

    def test_sampling_platform_with_period(self, capsys):
        rc = main(["calibrate", "simALPHA", "--n", "40000",
                   "--sampling-period", "256"])
        assert rc == 0  # within the 25% health threshold
        assert "calibrate" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("platforms", "avail", "native-avail", "papirun",
                    "calibrate"):
            args = parser.parse_args(
                [cmd] + (["simT3E"] if cmd not in ("platforms",) else [])
                + (["dot"] if cmd == "papirun" else [])
            )
            assert args.command == cmd


class TestLintCmd:
    def test_clean_script_exits_zero(self, tmp_path, capsys):
        script = tmp_path / "ok.py"
        script.write_text(
            "from repro.core.library import Papi\n"
            "from repro.platforms import create\n"
            'papi = Papi(create("simT3E"))\n'
            "es = papi.create_eventset()\n"
            'es.add_named("PAPI_TOT_CYC")\n'
            "es.start()\n"
            "es.stop()\n"
        )
        assert main(["lint", str(script)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_error_findings_exit_one(self, tmp_path, capsys):
        script = tmp_path / "bad.py"
        script.write_text(
            "from repro.core.library import Papi\n"
            "from repro.platforms import create\n"
            'papi = Papi(create("simX86"))\n'
            "es = papi.create_eventset()\n"
            'es.add_named("PAPI_FP_OPS", "PAPI_L1_DCM")\n'
            "es.read()\n"
            'PLATFORM_PRESET_TABLES["simX86"]["PAPI_TOT_CYC"] = '
            '[("BOGUS", 1)]\n'
        )
        assert main(["lint", str(script)]) == 1
        out = capsys.readouterr().out
        # the three analyzers each contribute their acceptance finding
        # (the add comes first: no run gets past a read before start)
        assert "PL101" in out      # infeasible EventSet
        assert "PL001" in out      # read before start
        assert "PL201" in out      # dangling preset term
        assert f"{script}:5:" in out  # file:line positions

    def test_json_format(self, tmp_path, capsys):
        import json

        script = tmp_path / "bad.py"
        script.write_text(
            "from repro.core.library import Papi\n"
            "from repro.platforms import create\n"
            'papi = Papi(create("simT3E"))\n'
            "es = papi.create_eventset()\n"
            "es.read()\n"
        )
        assert main(["lint", str(script), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["findings"][0]["code"] == "PL001"
        assert payload["findings"][0]["line"] == 5

    def test_platform_flag_supplies_context(self, tmp_path, capsys):
        script = tmp_path / "generic.py"
        script.write_text(
            "def measure(papi):\n"
            "    es = papi.create_eventset()\n"
            '    es.add_named("PAPI_FP_OPS", "PAPI_L1_DCM")\n'
        )
        assert main(["lint", str(script)]) == 0
        capsys.readouterr()
        assert main(["lint", str(script), "--platform", "simX86"]) == 1
        assert "PL101" in capsys.readouterr().out

    def test_syntax_error_exits_one(self, tmp_path, capsys):
        script = tmp_path / "broken.py"
        script.write_text("def broken(:\n")
        assert main(["lint", str(script)]) == 1
        assert "PL900" in capsys.readouterr().out

    def test_examples_lint_clean(self, capsys):
        import glob

        files = sorted(glob.glob("examples/*.py"))
        assert files, "examples/ must exist for this test"
        assert main(["lint"] + files) == 0


class TestCheckEventsCmd:
    def test_feasible_set_exits_zero(self, capsys):
        rc = main(["check-events", "PAPI_TOT_CYC", "PAPI_TOT_INS",
                   "--platform", "simX86"])
        assert rc == 0
        assert "feasible" in capsys.readouterr().out

    def test_mpx_only_set_exits_two(self, capsys):
        rc = main(["check-events", "PAPI_L1_DCM", "PAPI_L1_ICM",
                   "--platform", "simSPARC"])
        assert rc == 2
        out = capsys.readouterr().out
        assert "minimal conflicting subset" in out
        assert "Hall violation" in out
        assert "set_multiplex" in out

    def test_unknown_event_exits_one(self, capsys):
        rc = main(["check-events", "PAPI_NO_SUCH",
                   "--platform", "simX86"])
        assert rc == 1

    def test_matrix_lists_all_platforms(self, capsys):
        rc = main(["check-events", "PAPI_TOT_CYC",
                   "--platform", "simX86", "--matrix"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("simT3E", "simPOWER", "simALPHA", "simIA64",
                     "simSPARC"):
            assert name in out

    def test_json_format(self, capsys):
        import json

        rc = main(["check-events", "PAPI_L1_DCM", "PAPI_L1_ICM",
                   "--platform", "simSPARC", "--format", "json",
                   "--matrix"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "mpx"
        assert payload["hall_witness"]["counters"] == [1]
        assert payload["matrix"]["simX86"] == "ok"


class TestCheckPresetsCmd:
    def test_shipped_tables_pass(self, capsys):
        assert main(["check-presets"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_platform_filter(self, capsys):
        assert main(["check-presets", "--platform", "simPOWER"]) == 0
        out = capsys.readouterr().out
        assert "simPOWER" in out
        assert "simSPARC" not in out

    def test_power3_drift_is_visible(self, capsys):
        main(["check-presets", "--platform", "simPOWER"])
        out = capsys.readouterr().out
        assert "PL204" in out
        assert "PAPI_FP_INS" in out
