"""CLI behaviour: table output, JSON parity with the session, session
wiring (cache dirs), and error paths."""

import json

import pytest

from repro.cli import _parse_tags, build_parser, main


@pytest.fixture(autouse=True)
def _isolated(isolated_cache_env, cli_reuses_extraction):
    yield


class TestTagParsing:
    @pytest.mark.parametrize(
        "text",
        ["LM+IH", "lm_ih", "LM,IH", "lm ih", "lm+ih"],
    )
    def test_separator_and_case_insensitive(self, text):
        assert _parse_tags(text) == ("LM", "IH")

    def test_single_tag(self):
        assert _parse_tags("ref") == ("REF",)


class TestMapCommand:
    def test_table_output_names_the_winner(self, capsys):
        assert main(["map", "inv_mdctL", "--library", "lm_ih"]) == 0
        out = capsys.readouterr().out
        assert "mapped    true" in out
        assert "fixed_IMDCT" in out
        assert "library   LM+IH" in out

    def test_json_output_is_the_session_wire_format(self, capsys, fresh_session):
        assert main(["map", "inv_mdctL", "--library", "LM+IH", "--json"]) == 0
        out = capsys.readouterr().out.strip()
        expected = fresh_session.map("inv_mdctL", ("LM", "IH")).to_json()
        assert out.encode("ascii") == expected

    def test_unknown_block_is_exit_2_with_stderr(self, capsys):
        assert main(["map", "fft_radix2"]) == 2
        err = capsys.readouterr().err
        assert "unknown block" in err

    def test_cache_dir_builds_a_private_warm_tier(self, tmp_path, capsys):
        cache = tmp_path / "cli-tier"
        argv = ["map", "inv_mdctL", "--library", "lm_ih", "--cache-dir", str(cache)]
        assert main(argv) == 0
        assert (cache / "mapping_cache.sqlite").exists()
        capsys.readouterr()


class TestEnvironmentCacheDir:
    """Without ``--cache-dir`` the session comes from the environment."""

    def test_repro_cache_dir_receives_the_store(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["map", "inv_mdctL"]) == 0
        assert (tmp_path / "mapping_cache.sqlite").exists()
        capsys.readouterr()

    def test_repro_no_cache_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert main(["map", "inv_mdctL"]) == 0
        assert list(tmp_path.iterdir()) == []
        capsys.readouterr()


class TestSweepCommand:
    def test_libraries_are_separator_and_case_forgiving(self, capsys):
        """`--libraries ref_lm_ih` means the same combo as REF+LM+IH."""
        argv = [
            "sweep",
            "--platforms",
            "SA-1110",
            "--blocks",
            "inv_mdctL",
            "--libraries",
            "ref_lm_ih",
            "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["libraries"] == ["REF+LM+IH"]


class TestVerifyCommand:
    def test_table_output_reports_the_band(self, capsys):
        assert main(["verify", "inv_mdctL", "--library", "lm_ih"]) == 0
        out = capsys.readouterr().out
        assert "mapped    true" in out
        assert "band      full" in out
        assert "snr" in out

    def test_json_output_is_the_session_wire_format(self, capsys, fresh_session):
        assert main(["verify", "inv_mdctL", "--library", "LM+IH",
                     "--json"]) == 0
        out = capsys.readouterr().out.strip()
        expected = fresh_session.verify("inv_mdctL", ("LM", "IH"))
        assert out.encode("ascii") == expected.to_json()

    def test_unmapped_block_still_exits_zero(self, capsys):
        argv = ["verify", "inv_mdctL", "--library", "lm_ih",
                "--accuracy-budget", "0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "mapped    false" in out
        assert "nothing to verify" in out


class TestCodegenCommand:
    def test_emits_runnable_python_source(self, capsys):
        assert main(["codegen", "inv_mdctL", "--library", "lm_ih"]) == 0
        source = capsys.readouterr().out
        namespace: dict = {}
        exec(compile(source, "<test>", "exec"), namespace)
        assert callable(namespace["run"])
        assert callable(namespace["run_raw"])

    def test_json_shape_names_the_element(self, capsys):
        assert main(["codegen", "inv_mdctL", "--library", "lm_ih",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["block"] == "inv_mdctL"
        assert payload["element"] == "fixed_IMDCT"
        assert "def run_raw" in payload["source"]

    def test_unmapped_block_is_exit_2_with_stderr(self, capsys):
        argv = ["codegen", "inv_mdctL", "--library", "lm_ih",
                "--accuracy-budget", "0"]
        assert main(argv) == 2
        assert "no adequate element" in capsys.readouterr().err


class TestAccuracyBudgetOption:
    """The argparse rejection shares its message with the service 400."""

    @pytest.mark.parametrize("command", ["map", "verify", "codegen"])
    def test_negative_budget_is_a_usage_error(self, command, capsys):
        from repro.api.types import ACCURACY_BUDGET_MESSAGE

        with pytest.raises(SystemExit) as err:
            main([command, "inv_mdctL", "--accuracy-budget", "-1"])
        assert err.value.code == 2
        assert ACCURACY_BUDGET_MESSAGE in capsys.readouterr().err

    def test_negative_budget_rejected_on_sweep(self, capsys):
        from repro.api.types import ACCURACY_BUDGET_MESSAGE

        with pytest.raises(SystemExit):
            main(["sweep", "--accuracy-budget", "-0.5"])
        assert ACCURACY_BUDGET_MESSAGE in capsys.readouterr().err

    def test_non_numeric_budget_is_a_float_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["map", "inv_mdctL", "--accuracy-budget", "tight"])
        assert "invalid float value" in capsys.readouterr().err


class TestToleranceOption:
    """``--tolerance`` must be finite and nonnegative on every command
    that takes it; NaN or infinity used to accept every coefficient and
    answer with the wrong element (an 8-point FFT for a biquad)."""

    @pytest.mark.parametrize("command", ["map", "pareto", "verify", "codegen"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_bad_tolerance_is_a_usage_error(self, command, value, capsys):
        from repro.api.types import TOLERANCE_MESSAGE

        with pytest.raises(SystemExit) as err:
            main([command, "iir_biquad8", "--workload", "dsp",
                  f"--tolerance={value}", "--json"])
        assert err.value.code == 2
        assert TOLERANCE_MESSAGE in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_bad_tolerance_rejected_on_sweep(self, value, capsys):
        from repro.api.types import TOLERANCE_MESSAGE

        with pytest.raises(SystemExit) as err:
            main(["sweep", f"--tolerance={value}"])
        assert err.value.code == 2
        assert TOLERANCE_MESSAGE in capsys.readouterr().err

    def test_non_numeric_tolerance_is_a_float_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["map", "inv_mdctL", "--tolerance", "loose"])
        assert "invalid float value" in capsys.readouterr().err


class TestOtherCommands:
    def test_platforms_lists_the_registry(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "SA-1110" in out
        assert "DSP" in out

    def test_platforms_json_shape(self, capsys):
        assert main(["platforms", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["default"] == "SA-1110"
        assert [p["key"] for p in payload["platforms"]][0] == "SA-1110"

    def test_cache_stats_json_is_the_canonical_shape(self, capsys):
        assert main(["cache", "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"decompose", "map_block", "disk", "shared"} <= set(payload)

    def test_cache_clear_reports(self, capsys):
        assert main(["cache", "clear"]) == 0
        assert "cleared" in capsys.readouterr().out

    def test_no_command_prints_help_and_exits_2(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().out

    def test_parser_prog_is_repro(self):
        assert build_parser().prog == "repro"

    def test_serve_help_is_the_service_parsers(self, capsys):
        from repro.service.__main__ import _parser

        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == _parser().format_help()

    @pytest.mark.parametrize("argv", [
        ["platforms", "--port", "0"],
        ["map", "inv_mdctL", "extra"],
    ], ids=["unknown-flag", "extra-positional"])
    def test_other_commands_reject_unknown_arguments(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error: unrecognized arguments:" in capsys.readouterr().err
