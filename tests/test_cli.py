"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze", "banking"])
        assert args.app == "banking"
        assert args.budget == 3000
        assert args.ladder == "ansi"


class TestCommands:
    def test_apps_lists_bundled(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for name in ("banking", "customers", "employees", "orders", "tpcc"):
            assert name in out

    def test_levels_ordered(self, capsys):
        assert main(["levels"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "READ UNCOMMITTED"
        assert lines[-1] == "SERIALIZABLE"

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "nope"])

    def test_replay_prints_steps(self, capsys):
        code = main(["replay", "w1[x=1] r2[x] c1 c2", "--levels", "2=READ UNCOMMITTED"])
        assert code == 0
        out = capsys.readouterr().out
        assert "r2[x]" in out and "-> 1" in out

    def test_replay_blocked_step_reported(self, capsys):
        main(["replay", "w1[x=1] r2[x] c1 c2"])  # both default READ COMMITTED
        out = capsys.readouterr().out
        assert "blocked" in out

    def test_simulate_banking(self, capsys):
        code = main(
            ["simulate", "banking", "--level", "READ COMMITTED", "--size", "4",
             "--rounds", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_analyze_single_transaction(self, capsys):
        code = main(
            ["analyze", "employees", "--transaction", "Print_Record",
             "--level", "READ COMMITTED", "--budget", "3000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Print_Record" in out

    def test_analyze_failing_transaction_exit_code(self, capsys):
        code = main(
            ["analyze", "banking", "--transaction", "Withdraw_sav",
             "--level", "SNAPSHOT", "--budget", "2000"]
        )
        assert code == 1
        assert "INTERFERES" in capsys.readouterr().out

    def test_analyze_full_app(self, capsys):
        code = main(["analyze", "employees", "--budget", "3000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Print_Record" in out and "lowest correct level" in out


class TestGuardOption:
    def test_simulate_with_guard(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(
            ["simulate", "banking", "--level", "SNAPSHOT", "--size", "4",
             "--rounds", "2", "--guard"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "assertional concurrency control: ON" in out


class TestLevelOverrides:
    def test_simulate_with_mixed_levels(self, capsys):
        code = main(
            ["simulate", "banking", "--level", "REPEATABLE READ",
             "--levels", "Deposit_sav=READ COMMITTED",
             "--levels", "Deposit_ch=READ COMMITTED",
             "--size", "4", "--rounds", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "READ COMMITTED" in out and "REPEATABLE READ" in out

    def test_malformed_level_assignment_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "banking", "--levels", "Withdraw_sav", "--size", "2"])

    def test_unknown_level_name_rejected(self):
        with pytest.raises(SystemExit, match="unknown isolation level"):
            main(["simulate", "banking", "--levels", "Withdraw_sav=READ COMITTED",
                  "--size", "2"])

    def test_unknown_transaction_type_rejected(self):
        with pytest.raises(SystemExit, match="unknown transaction type"):
            main(["simulate", "banking", "--levels", "Withdraw=READ COMMITTED",
                  "--size", "2"])

    def test_unknown_uniform_level_rejected(self):
        with pytest.raises(SystemExit, match="unknown isolation level"):
            main(["simulate", "banking", "--level", "SNAPSHOTISH", "--size", "2"])

    def test_explore_validates_override_names(self):
        with pytest.raises(SystemExit, match="unknown transaction type"):
            main(["explore", "banking", "--scenario", "withdraw-race",
                  "--levels", "Withdrew_sav=READ COMMITTED"])

    def test_explore_validates_override_levels(self):
        with pytest.raises(SystemExit, match="unknown isolation level"):
            main(["explore", "banking", "--scenario", "withdraw-race",
                  "--levels", "Withdraw_sav=RC"])

    def test_replay_validates_levels(self):
        with pytest.raises(SystemExit, match="unknown isolation level"):
            main(["replay", "w1[x=1] c1", "--levels", "1=NOPE"])
        with pytest.raises(SystemExit, match="numeric"):
            main(["replay", "w1[x=1] c1", "--levels", "one=READ COMMITTED"])


class TestExhaustiveSimulate:
    def test_simulate_policy_exhaustive(self, capsys):
        code = main(
            ["simulate", "banking", "--policy", "exhaustive",
             "--level", "READ COMMITTED", "--size", "2", "--max-schedules", "20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "policy:     exhaustive" in out
        assert "schedules:" in out


class TestExploreCommand:
    def test_explore_finds_rc_lost_update(self, capsys):
        code = main(
            ["explore", "banking", "--scenario", "withdraw-race",
             "--level", "READ COMMITTED"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "semantic violations:" in out
        assert "repro replay" in out

    def test_explore_clean_at_repeatable_read(self, capsys):
        code = main(
            ["explore", "banking", "--scenario", "withdraw-race",
             "--level", "REPEATABLE READ"]
        )
        assert code == 0
        assert "semantic violations: 0" in capsys.readouterr().out

    def test_explore_json_payload(self, capsys):
        import json as json_module

        code = main(
            ["explore", "banking", "--scenario", "withdraw-race",
             "--level", "READ COMMITTED", "--json"]
        )
        assert code == 1
        payload = json_module.loads(capsys.readouterr().out)
        assert payload[0]["scenario"] == "withdraw-race"
        assert payload[0]["violations"] > 0
        assert payload[0]["witnesses"][0]["history"]

    def test_explore_requires_scenario_choice(self):
        with pytest.raises(SystemExit):
            main(["explore", "banking"])

    def test_explore_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["explore", "banking", "--scenario", "nope"])

    def test_explore_app_without_scenarios_rejected(self):
        with pytest.raises(SystemExit):
            main(["explore", "employees"])


def _exit_code(argv) -> int:
    """``main``'s exit status, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestRemovedExplorerKnobs:
    """The explorer is single-threaded and certify always uses optimal DPOR."""

    def test_explore_workers_rejected(self):
        code = _exit_code(
            ["explore", "banking", "--scenario", "withdraw-race", "--workers", "2"]
        )
        assert code == 2

    def test_certify_workers_rejected(self):
        code = _exit_code(
            ["certify", "banking", "--budget", "10", "--max-schedules", "10",
             "--workers", "2"]
        )
        assert code == 2

    def test_certify_dpor_rejected(self):
        code = _exit_code(
            ["certify", "banking", "--budget", "10", "--max-schedules", "10",
             "--dpor", "lite"]
        )
        assert code == 2

    def test_submit_dpor_rejected(self):
        code = _exit_code(
            ["submit", "certify", "banking", "--dpor", "lite",
             "--port", "1", "--timeout", "2"]
        )
        assert code == 2


class TestJsonOutput:
    def test_analyze_single_transaction_json(self, capsys):
        import json as json_module

        code = main(
            ["analyze", "employees", "--transaction", "Print_Record",
             "--level", "READ COMMITTED", "--budget", "3000", "--json"]
        )
        assert code == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["transaction"] == "Print_Record"
        assert payload["ok"] is True

    def test_analyze_full_app_json(self, capsys):
        import json as json_module

        code = main(["analyze", "employees", "--budget", "3000", "--json"])
        assert code == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["application"] == "employees"
        assert "levels" in payload and "tiers" in payload and "cache" in payload


class TestCertifyCommand:
    def test_certify_parser_defaults(self):
        args = build_parser().parse_args(["certify", "banking"])
        assert args.app == "banking"
        assert args.ladder == "ansi"
        assert args.max_schedules == 500

    def test_certify_banking_agreement(self, capsys):
        import json as json_module

        code = main(["certify", "banking", "--json"])
        assert code == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["agreement"] is True
        assert {v["transaction"] for v in payload["verdicts"]} == {
            "Withdraw_sav", "Withdraw_ch", "Deposit_sav", "Deposit_ch",
        }
        assert payload["sdg"]["disagreements"] == []


class TestSdgFlag:
    def test_analyze_prunes_by_default(self, capsys):
        import json as json_module

        code = main(["analyze", "employees", "--budget", "2000", "--no-cache",
                     "--json"])
        assert code == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["tiers"]["sdg_pruned"] > 0

    def test_no_sdg_disables_pruning_same_levels(self, capsys):
        import json as json_module

        main(["analyze", "employees", "--budget", "2000", "--no-cache", "--json"])
        with_sdg = json_module.loads(capsys.readouterr().out)
        code = main(["analyze", "employees", "--budget", "2000", "--no-cache",
                     "--no-sdg", "--json"])
        assert code == 0
        without = json_module.loads(capsys.readouterr().out)
        assert without["tiers"]["sdg_pruned"] == 0
        assert without["tiers"]["disjoint"] > 0
        assert with_sdg["levels"] == without["levels"]


class TestLintCommand:
    def test_lint_bundled_apps_clean(self, capsys):
        code = main(["lint"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("banking", "customers", "employees", "orders", "tpcc"):
            assert f"lint {name}" in out

    def test_lint_single_app_json(self, capsys):
        import json as json_module

        code = main(["lint", "banking", "--json"])
        assert code == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert len(payload) == 1
        assert payload[0]["application"] == "banking"
        assert payload[0]["ok"] is True
        rules = {f["rule"] for f in payload[0]["findings"]}
        assert "sdg-write-skew" in rules

    def test_lint_unknown_app_rejected(self):
        with pytest.raises(SystemExit, match="unknown application"):
            main(["lint", "nope"])


class TestVersionAndExitCodes:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_repro_error_maps_to_usage_exit(self, capsys, monkeypatch):
        from repro.errors import ReproError

        def explode(args):
            raise ReproError("bad input")

        monkeypatch.setattr("repro.cli.cmd_apps", explode)
        code = main(["apps"])
        assert code == 2
        assert "repro: error: bad input" in capsys.readouterr().err

    def test_internal_error_maps_to_exit_3(self, capsys, monkeypatch):
        def explode(args):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr("repro.cli.cmd_apps", explode)
        code = main(["apps"])
        assert code == 3
        err = capsys.readouterr().err
        assert "repro: internal error: RuntimeError: wires crossed" in err
        assert "Traceback" not in err

    def test_submit_unreachable_server_exit_4(self, capsys):
        code = main(["submit", "lint", "banking", "--port", "1", "--timeout", "2"])
        assert code == 4
        assert "cannot reach repro service" in capsys.readouterr().err


class TestServeAndFleetFlags:
    def test_serve_defaults_to_single_process(self):
        args = build_parser().parse_args(["serve"])
        assert args.fleet == 0
        assert args.max_inflight == 32
        assert args.persist_interval is None

    def test_fleet_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--fleet", "4", "--max-inflight", "8",
             "--persist-interval", "2.5"]
        )
        assert args.fleet == 4
        assert args.max_inflight == 8
        assert args.persist_interval == 2.5

    def test_serve_rejects_zero_queue_limit(self, capsys):
        code = main(["serve", "--queue-limit", "0"])
        assert code == 2
        assert "max_pending" in capsys.readouterr().err

    def test_serve_rejects_zero_workers(self, capsys):
        code = main(["serve", "--workers", "0"])
        assert code == 2
        assert "workers" in capsys.readouterr().err

    def test_serve_rejects_persist_interval_with_no_persist(self, capsys):
        code = main(["serve", "--no-persist", "--persist-interval", "5"])
        assert code == 2
        assert "persist_interval" in capsys.readouterr().err

    def test_fleet_rejects_nonpositive_max_inflight(self, capsys):
        code = main(["serve", "--fleet", "2", "--max-inflight", "0"])
        assert code == 2
        assert "max_inflight" in capsys.readouterr().err


class TestCompactCommand:
    def _seed_segments(self, directory, count=3):
        from repro.core.cache import FORMULA_SCOPE, VerdictCache
        from repro.core.interference import InterferenceVerdict
        from repro.core.persist import PersistentStore

        for i in range(count):
            cache = VerdictCache()
            cache.store(
                FORMULA_SCOPE,
                f"key-{i}",
                InterferenceVerdict(
                    interferes=False, confidence="proved", method="symbolic"
                ),
            )
            PersistentStore(directory).flush(cache)

    def test_compact_merges_segments(self, tmp_path, capsys):
        from repro.core.cache import VerdictCache
        from repro.core.persist import PersistentStore

        self._seed_segments(tmp_path, count=3)
        code = main(["compact", "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "compacted 3 segments into 1" in out
        store = PersistentStore(tmp_path)
        assert store.segment_count() == 1
        cache = VerdictCache()
        assert store.load(cache) == 3

    def test_compact_empty_directory_is_a_noop(self, tmp_path, capsys):
        code = main(["compact", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "no verdict segments" in capsys.readouterr().out

    def test_compact_env_fallback(self, tmp_path, capsys, monkeypatch):
        self._seed_segments(tmp_path, count=2)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["compact"])
        assert code == 0
        assert "compacted 2 segments" in capsys.readouterr().out


class TestInferCommand:
    def test_infer_seed_range_expands_to_one_report_per_seed(self, capsys):
        import json

        code = main(["infer", "appgen:0..2", "--json"])
        assert code == 0
        payloads = json.loads(capsys.readouterr().out)
        assert isinstance(payloads, list)
        assert len(payloads) == 2
        for payload in payloads:
            assert "levels" in payload
            assert "disagreements" in payload

    def test_infer_single_ref_emits_one_object(self, capsys):
        import json

        code = main(["infer", "appgen:0", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, dict)
        assert payload["disagreements"] == []

    def test_declared_apps_report_disagreements_structurally(self, capsys):
        import json

        main(["infer", "banking", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert "agreement" in payload
        for entry in payload["disagreements"]:
            assert set(entry) == {"transaction", "declared", "inferred"}

    def test_generator_knobs_rejected_for_registry_apps(self, capsys):
        code = main(["infer", "banking", "--txns", "3..5"])
        assert code == 2
        assert "appgen" in capsys.readouterr().err


class TestFuzzCommand:
    def test_fuzz_parser_defaults(self):
        args = build_parser().parse_args(["fuzz", "--seeds", "10"])
        assert args.app is None
        assert args.seeds == 10
        assert args.corpus_dir == ".repro-corpus"
        assert args.budget == 1500
        assert args.pairs == 3
        assert args.max_schedules == 96
        assert args.inflight == 8
        assert not args.no_shrink

    def test_fuzz_requires_exactly_one_seed_source(self, tmp_path, capsys):
        assert main(["fuzz", "--corpus-dir", str(tmp_path)]) == 2
        assert "either" in capsys.readouterr().err
        code = main(
            ["fuzz", "appgen:0..2", "--seeds", "3", "--corpus-dir", str(tmp_path)]
        )
        assert code == 2

    def test_fuzz_rejects_registry_apps(self, tmp_path, capsys):
        code = main(["fuzz", "banking", "--corpus-dir", str(tmp_path)])
        assert code == 2
        assert "appgen" in capsys.readouterr().err

    def test_fuzz_rejects_unknown_force_level(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["fuzz", "appgen:0", "--force-level", "CASUAL",
                 "--corpus-dir", str(tmp_path)]
            )

    def test_fuzz_json_summary_and_warm_rerun(self, tmp_path, capsys):
        import json

        argv = ["fuzz", "appgen:0..1", "--corpus-dir", str(tmp_path), "--json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["summary"]["explored"] == 1
        assert cold["summary"]["verdicts"]["UNSOUND"] == 0
        assert cold["findings"] == []

        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["summary"]["explored"] == 0
        assert warm["summary"]["skip_rate"] == 1.0

    def test_fuzz_unsound_exit_code_and_witness(self, tmp_path, capsys):
        code = main(
            ["fuzz", "appgen:0", "--force-level", "READ COMMITTED",
             "--corpus-dir", str(tmp_path)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "UNSOUND" in out
        assert "repro replay" in out
