"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EFFORTS, EXPERIMENTS, main

#: Flags for a campaign small enough that tests finish in seconds:
#: 2 scenarios x 2 protocols x 2 replicates = 8 simulations.
TINY_CAMPAIGN = [
    "campaign",
    "--name",
    "cli-tiny",
    "--radii",
    "100,150",
    "--node-counts",
    "12",
    "--protocols",
    "glr,epidemic",
    "--replicates",
    "2",
    "--messages",
    "3",
    "--sim-time",
    "20",
]


class TestList:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "glr" in out
        assert "bench" in out

    def test_every_paper_artifact_has_an_experiment(self):
        for name in (
            "fig1",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
        ):
            assert name in EXPERIMENTS

    def test_efforts_registered(self):
        assert set(EFFORTS) == {"bench", "spot", "paper"}


class TestRun:
    def test_quick_run(self, capsys):
        code = main(
            [
                "run",
                "--protocol",
                "glr",
                "--radius",
                "150",
                "--messages",
                "3",
                "--sim-time",
                "30",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "delivery ratio" in out
        assert "messages created    3" in out

    def test_run_with_storage_limit(self, capsys):
        code = main(
            [
                "run",
                "--protocol",
                "epidemic",
                "--messages",
                "3",
                "--sim-time",
                "20",
                "--storage-limit",
                "5",
            ]
        )
        assert code == 0

    def test_bad_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--protocol", "nonsense"])


class TestExperiment:
    def test_fig1_experiment(self, capsys):
        assert main(["experiment", "fig1", "--effort", "bench"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "components" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_workers_flag_threads_through(self, capsys, tmp_path):
        code = main(
            [
                "experiment",
                "table3",
                "--effort",
                "bench",
                "--workers",
                "2",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "custody" in out


class TestCampaign:
    def test_campaign_runs_and_reports_cells(self, capsys):
        assert main(TINY_CAMPAIGN + ["--quiet"]) == 0
        out = capsys.readouterr().out
        assert "8 simulations" in out
        assert "cli-tiny/radius=100.0" in out
        assert "cache: disabled" in out

    def test_campaign_resumes_from_cache(self, capsys, tmp_path):
        args = TINY_CAMPAIGN + [
            "--workers",
            "2",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "8 misses" in first
        assert "(ran)" in first

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "cache: 8 hits, 0 misses (100.0% hit rate)" in second
        assert "(cache)" in second and "(ran)" not in second

        # The summary tables (everything after the progress log) match:
        # cached metrics are identical to the freshly simulated ones.
        def summary(text):
            return [
                line
                for line in text.splitlines()
                if "|" in line
            ]

        assert summary(first) == summary(second)

    def test_csv_flags_tolerate_spaces(self, capsys):
        args = list(TINY_CAMPAIGN)
        args[args.index("glr,epidemic")] = "glr, epidemic"
        args[args.index("100,150")] = "100, 150"
        assert main(args + ["--quiet"]) == 0
        out = capsys.readouterr().out
        assert "8 simulations" in out

    def test_bad_inputs_exit_2_with_clean_error(self, capsys):
        assert main(["campaign", "--protocols", "warp_drive"]) == 2
        assert "unknown protocol" in capsys.readouterr().err
        assert main(["campaign", "--radii", "100,100"]) == 2
        assert "duplicate" in capsys.readouterr().err
        assert main(["campaign", "--node-counts", ","]) == 2
        assert "--node-counts" in capsys.readouterr().err
        assert main(["campaign", "--spec", "/nonexistent.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_campaign_from_json_spec(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "name": "json-spec",
                    "base": {
                        "n_nodes": 12,
                        "active_nodes": 6,
                        "message_count": 3,
                        "sim_time": 20.0,
                    },
                    "grid": {"radius": [100.0, 150.0]},
                    "protocols": ["glr"],
                    "replicates": 2,
                }
            )
        )
        code = main(
            ["campaign", "--spec", str(spec_path), "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "json-spec/radius=100.0" in out
        assert "4 simulations" in out


class TestMobilityCli:
    def test_list_shows_models_and_suites(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mobility models:" in out
        assert "gauss_markov" in out
        assert "suites:" in out
        assert "cross-mobility" in out

    def test_campaign_mobility_grid(self, capsys):
        code = main(
            [
                "campaign",
                "--name",
                "cli-mob",
                "--mobility",
                "rwp,manhattan",
                "--node-counts",
                "10",
                "--protocols",
                "glr",
                "--replicates",
                "1",
                "--messages",
                "2",
                "--sim-time",
                "15",
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 simulations" in out
        assert "mobility=random_waypoint" in out
        assert "mobility=manhattan" in out

    def test_campaign_unknown_mobility_exits_2(self, capsys):
        assert main(["campaign", "--mobility", "teleport"]) == 2
        assert "unknown mobility model" in capsys.readouterr().err

    def test_campaign_suite(self, capsys, monkeypatch):
        from repro.experiments.common import Effort
        from repro.cli import EFFORTS

        monkeypatch.setitem(
            EFFORTS, "bench", Effort(runs=1, sim_time=10.0, message_count=2)
        )
        code = main(
            [
                "campaign",
                "--suite",
                "convoy",
                "--replicates",
                "1",
                "--effort",
                "bench",
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "convoy/mobility=rpgm" in out
        assert "6 simulations" in out  # 3 RPGM variants x 2 protocols

    def test_campaign_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--suite", "nonsense"])

    def test_campaign_suite_rejects_conflicting_flags(self, capsys):
        assert main(
            ["campaign", "--suite", "convoy", "--protocols", "glr"]
        ) == 2
        err = capsys.readouterr().err
        assert "--protocols" in err and "--suite" in err
        assert main(
            ["campaign", "--suite", "convoy", "--messages", "50"]
        ) == 2
        assert "--messages" in capsys.readouterr().err

    def test_campaign_spec_and_suite_mutually_exclusive(self, capsys):
        assert main(
            ["campaign", "--spec", "x.json", "--suite", "convoy"]
        ) == 2
        assert "one or the other" in capsys.readouterr().err

    def test_spec_composes_with_seed_and_replicates(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "name": "compose",
                    "base": {"n_nodes": 10, "active_nodes": 5,
                             "message_count": 2, "sim_time": 15.0},
                    "protocols": ["glr"],
                    "replicates": 3,
                }
            )
        )
        code = main(
            ["campaign", "--spec", str(spec_path), "--replicates", "1",
             "--seed", "9", "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 replicates = 1 simulations" in out

    def test_campaign_spec_rejects_conflicting_flags(self, capsys):
        assert main(
            ["campaign", "--spec", "x.json", "--protocols", "glr",
             "--radii", "50,100"]
        ) == 2
        err = capsys.readouterr().err
        assert "--spec" in err and "--protocols" in err and "--radii" in err

    def test_campaign_effort_is_suite_only(self, capsys):
        assert main(
            ["campaign", "--radii", "50,100", "--effort", "bench"]
        ) == 2
        assert "--effort" in capsys.readouterr().err
        assert main(
            ["campaign", "--spec", "x.json", "--effort", "bench"]
        ) == 2
        assert "--effort" in capsys.readouterr().err

    def test_experiment_mobility_flag(self, capsys, tmp_path, monkeypatch):
        from repro.experiments.common import Effort
        from repro.cli import EFFORTS

        monkeypatch.setitem(
            EFFORTS, "bench", Effort(runs=1, sim_time=10.0, message_count=2)
        )
        code = main(
            [
                "experiment",
                "fig6",
                "--effort",
                "bench",
                "--mobility",
                "gauss-markov",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "fig6" in capsys.readouterr().out

    def test_fig1_rejects_mobility(self, capsys):
        assert main(
            ["experiment", "fig1", "--mobility", "gauss-markov"]
        ) == 2
        assert "static-topology" in capsys.readouterr().err


class TestPinnedEngineRejected:
    """Specs and stream headers that pin the removed ``engine`` field
    fail at load with a clean error, not a traceback."""

    BASE = {"n_nodes": 10, "active_nodes": 5, "message_count": 2,
            "sim_time": 15.0}

    @pytest.mark.parametrize(
        "document",
        [
            {"name": "pinned", "base": {**BASE, "engine": "reference"}},
            {"name": "pinned", "base": BASE,
             "grid": [["engine", ["reference", "vectorized"]]]},
        ],
        ids=["base", "grid"],
    )
    def test_campaign_spec_pinning_engine_exits_2(
        self, document, tmp_path, capsys
    ):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(document))
        assert main(["campaign", "--spec", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "engine" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["base", "grid"])
    def test_orchestrate_spec_pinning_engine_exits_2(
        self, where, tmp_path, capsys
    ):
        document = {"name": "pinned", "base": dict(self.BASE)}
        if where == "base":
            document["base"]["engine"] = "reference"
        else:
            document["grid"] = [["engine", ["reference"]]]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(document))
        run_dir = tmp_path / "run"
        code = main(
            ["campaign", "orchestrate", "--spec", str(spec_path),
             "--shards", "2", "--dir", str(run_dir)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "engine" in err
        assert "Traceback" not in err
        # Rejected at load: no worker was ever launched.
        assert not list(run_dir.glob("*.jsonl"))

    def _pinned_stream(self, tmp_path, base, grid):
        import hashlib

        from repro.experiments.campaign import CACHE_FORMAT
        from repro.experiments.stream import init_stream

        stream = tmp_path / "pinned.jsonl"
        doc = {"name": "pinned", "base": base, "grid": grid,
               "protocols": ["glr"], "replicates": 1, "buffer_limit": None}
        # A self-consistent header, hashed the way campaign_spec_hash
        # hashed specs that still carried the field.
        blob = json.dumps({"format": CACHE_FORMAT, "spec": doc},
                          sort_keys=True, separators=(",", ":"))
        init_stream(stream, hashlib.sha256(blob.encode()).hexdigest(), doc)
        return stream

    def test_aggregate_stream_pinning_engine_exits_2(self, tmp_path, capsys):
        stream = self._pinned_stream(
            tmp_path, {**self.BASE, "engine": "reference"}, []
        )
        assert main(["campaign", "aggregate", "--stream", str(stream)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "engine" in err
        assert "Traceback" not in err

    def test_aggregate_stream_with_engine_grid_axis_exits_2(
        self, tmp_path, capsys
    ):
        stream = self._pinned_stream(
            tmp_path, self.BASE, [["engine", ["reference", "vectorized"]]]
        )
        assert main(["campaign", "aggregate", "--stream", str(stream)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "engine" in err
        assert "Traceback" not in err

    def test_report_on_stream_pinning_engine_exits_2(self, tmp_path, capsys):
        stream = self._pinned_stream(
            tmp_path, {**self.BASE, "engine": "reference"}, []
        )
        assert main(["report", str(stream)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "engine" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [["run"], ["campaign"], ["campaign", "orchestrate"]],
        ids=" ".join,
    )
    def test_no_engine_flags(self, command, capsys):
        with pytest.raises(SystemExit):
            main([*command, "--help"])
        assert "--engine" not in capsys.readouterr().out


class TestCampaignV2Cli:
    """Protocol-param sweeps, metrics streams, shards, merge/aggregate."""

    def _grid_args(self, **extra):
        args = [
            "campaign",
            "--name",
            "v2",
            "--radii",
            "100,150",
            "--node-counts",
            "12",
            "--protocols",
            "glr",
            "--protocol-param",
            "custody=true,false",
            "--replicates",
            "1",
            "--messages",
            "3",
            "--sim-time",
            "20",
            "--quiet",
        ]
        for flag, value in extra.items():
            args += [f"--{flag.replace('_', '-')}", str(value)]
        return args

    def test_protocol_param_expands_the_axis(self, capsys):
        assert main(self._grid_args()) == 0
        out = capsys.readouterr().out
        assert "2 protocols" in out
        assert "4 simulations" in out
        assert "glr(custody=True)" in out
        assert "glr(custody=False)" in out

    def test_protocol_param_value_parsing(self, capsys):
        # ints, floats, and bools must reach the config as their own
        # types; a bad field name must exit cleanly.
        args = [
            "campaign",
            "--protocols",
            "glr",
            "--protocol-param",
            "sparse_copies=2,3",
            "--node-counts",
            "10",
            "--replicates",
            "1",
            "--messages",
            "2",
            "--sim-time",
            "15",
            "--quiet",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "glr(sparse_copies=2)" in out

    def test_bad_protocol_param_exits_2(self, capsys):
        assert main(["campaign", "--protocol-param", "custody"]) == 2
        assert "name=v1,v2" in capsys.readouterr().err
        assert main(["campaign", "--protocol-param", "warp=1,2"]) == 2
        assert "does not accept" in capsys.readouterr().err
        assert (
            main(["campaign", "--protocol-param", "custody=true,true"]) == 2
        )
        assert "duplicate" in capsys.readouterr().err

    def test_protocol_param_conflicts_with_suite(self, capsys):
        assert (
            main(
                [
                    "campaign",
                    "--suite",
                    "convoy",
                    "--protocol-param",
                    "custody=true,false",
                ]
            )
            == 2
        )
        assert "--protocol-param" in capsys.readouterr().err

    def test_stream_written_and_resumed(self, capsys, tmp_path):
        stream = tmp_path / "v2.jsonl"
        assert main(self._grid_args(stream=stream)) == 0
        capsys.readouterr()
        assert stream.exists()
        assert main(self._grid_args(stream=stream)) == 0
        out = capsys.readouterr().out
        assert "stream: 4 tasks resumed" in out

    def test_shard_flags_validated(self, capsys, tmp_path):
        assert main(self._grid_args(shard_index=0)) == 2
        assert "together" in capsys.readouterr().err
        assert (
            main(self._grid_args(shard_index=0, shard_count=2)) == 2
        )
        assert "--stream" in capsys.readouterr().err
        assert (
            main(
                self._grid_args(
                    shard_index=5,
                    shard_count=2,
                    stream=tmp_path / "s.jsonl",
                )
            )
            == 2
        )
        assert "shard_index" in capsys.readouterr().err

    def test_sharded_merge_aggregate_matches_unsharded(
        self, capsys, tmp_path
    ):
        full = tmp_path / "full.jsonl"
        assert main(self._grid_args(stream=full)) == 0
        capsys.readouterr()

        for index in range(2):
            assert (
                main(
                    self._grid_args(
                        stream=tmp_path / f"shard{index}.jsonl",
                        shard_index=index,
                        shard_count=2,
                    )
                )
                == 0
            )
        capsys.readouterr()

        merged = tmp_path / "merged.jsonl"
        assert (
            main(
                [
                    "campaign",
                    "merge",
                    "--out",
                    str(merged),
                    str(tmp_path / "shard0.jsonl"),
                    str(tmp_path / "shard1.jsonl"),
                ]
            )
            == 0
        )
        assert "merged 2 streams" in capsys.readouterr().out

        assert main(["campaign", "aggregate", "--stream", str(merged)]) == 0
        merged_table = capsys.readouterr().out
        assert main(["campaign", "aggregate", "--stream", str(full)]) == 0
        full_table = capsys.readouterr().out
        assert merged_table == full_table
        assert "glr(custody=False)" in merged_table

    def test_merge_refuses_mismatched_specs(self, capsys, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(self._grid_args(stream=a)) == 0
        other = self._grid_args(stream=b)
        other[other.index("--radii") + 1] = "100,200"
        assert main(other) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "campaign",
                    "merge",
                    "--out",
                    str(tmp_path / "m.jsonl"),
                    str(a),
                    str(b),
                ]
            )
            == 2
        )
        assert "same campaign spec" in capsys.readouterr().err

    def test_merge_cache_union_flags_must_pair(self, capsys, tmp_path):
        a = tmp_path / "a.jsonl"
        assert main(self._grid_args(stream=a)) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "campaign",
                    "merge",
                    "--out",
                    str(tmp_path / "m.jsonl"),
                    str(a),
                    "--caches",
                    "x,y",
                ]
            )
            == 2
        )
        assert "--cache-out" in capsys.readouterr().err

    def test_aggregate_missing_stream_exits_2(self, capsys, tmp_path):
        assert (
            main(
                [
                    "campaign",
                    "aggregate",
                    "--stream",
                    str(tmp_path / "nope.jsonl"),
                ]
            )
            == 2
        )
        assert "cannot read" in capsys.readouterr().err

    def test_suite_mobility_x_protocol_listed(self, capsys):
        assert main(["list"]) == 0
        assert "mobility-x-protocol" in capsys.readouterr().out

    def test_heartbeat_touched_per_task(self, capsys, tmp_path):
        heartbeat = tmp_path / "hb"
        args = [
            "campaign",
            "--node-counts",
            "10",
            "--protocols",
            "glr",
            "--replicates",
            "1",
            "--messages",
            "2",
            "--sim-time",
            "15",
            "--quiet",
            "--heartbeat",
            str(heartbeat),
        ]
        assert main(args) == 0
        assert heartbeat.exists()


class TestMobilityParamCli:
    """--mobility-param mirrors --protocol-param for movement models."""

    def _args(self, *extra):
        return [
            "campaign",
            "--name",
            "mp",
            "--mobility",
            "rpgm",
            "--node-counts",
            "10",
            "--protocols",
            "glr",
            "--replicates",
            "1",
            "--messages",
            "2",
            "--sim-time",
            "15",
            "--quiet",
            *extra,
        ]

    def test_expands_the_mobility_axis(self, capsys):
        code = main(self._args("--mobility-param", "n_groups=2,3"))
        assert code == 0
        out = capsys.readouterr().out
        assert "2 simulations" in out
        assert "mobility=rpgm(n_groups=2)" in out
        assert "mobility=rpgm(n_groups=3)" in out

    def test_axes_take_cartesian_product(self, capsys):
        code = main(
            self._args(
                "--mobility-param",
                "n_groups=2,3",
                "--mobility-param",
                "group_radius=40,80",
            )
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 simulations" in out
        assert "mobility=rpgm(group_radius=40,n_groups=2)" in out

    def test_registry_validation_at_parse_time(self, capsys):
        # A typo'd parameter name fails with the registry's message
        # before any simulation starts.
        assert main(self._args("--mobility-param", "n_grps=2,3")) == 2
        err = capsys.readouterr().err
        assert "does not accept" in err and "n_groups" in err

    def test_requires_mobility(self, capsys):
        assert (
            main(["campaign", "--mobility-param", "n_groups=2,3"]) == 2
        )
        assert "--mobility" in capsys.readouterr().err

    def test_malformed_and_duplicate_entries_rejected(self, capsys):
        assert main(self._args("--mobility-param", "n_groups")) == 2
        assert "name=v1,v2" in capsys.readouterr().err
        assert main(self._args("--mobility-param", "n_groups=2,2")) == 2
        assert "duplicate" in capsys.readouterr().err
        assert (
            main(
                self._args(
                    "--mobility-param",
                    "n_groups=2,3",
                    "--mobility-param",
                    "n_groups=4,5",
                )
            )
            == 2
        )
        assert "given twice" in capsys.readouterr().err

    def test_conflicts_with_suite(self, capsys):
        assert (
            main(
                [
                    "campaign",
                    "--suite",
                    "convoy",
                    "--mobility-param",
                    "n_groups=2,3",
                ]
            )
            == 2
        )
        assert "--mobility-param" in capsys.readouterr().err


class TestOrchestrateCli:
    def _args(self, run_dir, *extra):
        return [
            "campaign",
            "orchestrate",
            "--name",
            "cli-orch",
            "--radii",
            "100,150",
            "--node-counts",
            "10",
            "--protocols",
            "glr",
            "--replicates",
            "1",
            "--messages",
            "2",
            "--sim-time",
            "15",
            "--shards",
            "2",
            "--poll-interval",
            "0.05",
            "--dir",
            str(run_dir),
            *extra,
        ]

    def test_orchestrate_runs_and_merges(self, capsys, tmp_path):
        assert main(self._args(tmp_path / "run")) == 0
        out = capsys.readouterr().out
        assert "orchestrating campaign cli-orch" in out
        assert "2 simulations" in out
        assert "orchestrated (static scheduler): 2 shard(s)" in out
        assert (tmp_path / "run" / "campaign.jsonl").exists()
        assert "cli-orch/radius=100.0" in out

    def test_orchestrate_shape_flags_validated(self, capsys, tmp_path):
        args = self._args(tmp_path)
        args[args.index("glr")] = "warp_drive"
        assert main(args) == 2
        assert "unknown protocol" in capsys.readouterr().err

    def test_orchestrate_bad_shards_exit_2(self, capsys, tmp_path):
        args = self._args(tmp_path)
        args[args.index("--shards") + 1] = "0"
        assert main(args) == 2
        assert "shards" in capsys.readouterr().err

    def test_orchestrate_stealing_runs_and_reports(self, capsys, tmp_path):
        code = main(
            self._args(
                tmp_path / "steal",
                "--scheduler",
                "stealing",
                "--steal-threshold",
                "1",
                "--lease-batch",
                "1",
            )
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "orchestrated (stealing scheduler): 2 shard(s)" in out
        assert "lease(s) stolen" in out
        assert "summary: shard 0" in out
        assert (tmp_path / "steal" / "campaign.jsonl").exists()
        assert (tmp_path / "steal" / "shard0.tasks.json").exists()

    def test_orchestrate_unknown_scheduler_rejected(self, tmp_path):
        with pytest.raises(SystemExit):  # argparse choices
            main(self._args(tmp_path, "--scheduler", "round-robin"))

    def test_orchestrate_chaos_slow_validated(self, capsys, tmp_path):
        args = self._args(
            tmp_path, "--chaos-slow-shard", "5", "--chaos-slow-s", "0.1"
        )
        assert main(args) == 2
        assert "chaos_slow_shard" in capsys.readouterr().err


class TestHostedOrchestrateCli:
    """`--hosts`: distributed orchestration over transport specs."""

    def _args(self, run_dir, *extra):
        return [
            "campaign",
            "orchestrate",
            "--name",
            "cli-hosted",
            "--radii",
            "100,150",
            "--node-counts",
            "10",
            "--protocols",
            "glr",
            "--replicates",
            "1",
            "--messages",
            "2",
            "--sim-time",
            "15",
            "--poll-interval",
            "0.05",
            "--dir",
            str(run_dir),
            *extra,
        ]

    def test_bad_host_spec_rejected_at_parse_time(self, tmp_path):
        # argparse `type` validation: the parser itself exits 2 before
        # any spec expansion or run-dir creation happens.
        with pytest.raises(SystemExit) as excinfo:
            main(self._args(tmp_path / "r", "--hosts", "@nonsense"))
        assert excinfo.value.code == 2
        assert not (tmp_path / "r").exists()

    def test_empty_hosts_rejected_at_parse_time(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(self._args(tmp_path, "--hosts", ""))
        assert excinfo.value.code == 2

    def test_hosts_conflicts_with_shards(self, capsys, tmp_path):
        args = self._args(
            tmp_path, "--shards", "2", "--hosts", f"store:{tmp_path}/h0"
        )
        assert main(args) == 2
        assert "exactly one of --shards or --hosts" in (
            capsys.readouterr().err
        )

    def test_one_of_shards_or_hosts_required(self, capsys, tmp_path):
        assert main(self._args(tmp_path)) == 2
        assert "exactly one of --shards or --hosts" in (
            capsys.readouterr().err
        )

    def test_hosts_conflicts_with_static_scheduler(self, capsys, tmp_path):
        args = self._args(
            tmp_path,
            "--hosts",
            f"store:{tmp_path}/h0",
            "--scheduler",
            "static",
        )
        assert main(args) == 2
        assert "--scheduler static conflicts with --hosts" in (
            capsys.readouterr().err
        )

    def test_hosts_conflicts_with_per_shard_chaos(self, capsys, tmp_path):
        args = self._args(
            tmp_path,
            "--hosts",
            f"store:{tmp_path}/h0",
            "--chaos-kill-shard",
            "0",
        )
        assert main(args) == 2
        assert "--chaos-kill-host" in capsys.readouterr().err

    def test_chaos_kill_host_needs_hosts(self, capsys, tmp_path):
        args = self._args(
            tmp_path, "--shards", "2", "--chaos-kill-host", "0"
        )
        assert main(args) == 2
        assert "--chaos-kill-host needs --hosts" in capsys.readouterr().err

    def test_orchestrates_over_store_hosts(self, capsys, tmp_path):
        hosts = f"store:{tmp_path}/h0,store:{tmp_path}/h1"
        assert main(
            self._args(tmp_path / "run", "--hosts", hosts)
        ) == 0
        out = capsys.readouterr().out
        assert "2 host(s)" in out
        assert (
            "orchestrated (stealing scheduler"
            " across 2 host(s)): 2 shard(s)" in out
        )
        assert (tmp_path / "run" / "campaign.jsonl").exists()
        assert "cli-hosted/radius=100.0" in out
        # The workers ran against the store roots.
        assert (tmp_path / "h0" / "spec.json").exists()
        assert (tmp_path / "h1" / "spec.json").exists()

    def test_chaos_kill_host_recovers_end_to_end(self, capsys, tmp_path):
        hosts = f"store:{tmp_path}/h0,store:{tmp_path}/h1"
        code = main(
            self._args(
                tmp_path / "run",
                "--hosts",
                hosts,
                "--chaos-kill-host",
                "0",
                "--chaos-kill-after",
                "0",
                "--steal-threshold",
                "1",
                "--lease-batch",
                "1",
            )
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "vanished" in out
        assert "reclaim: moved" in out
        assert (tmp_path / "run" / "campaign.jsonl").exists()

    def test_watch_dir_reads_mirrored_multi_host_run(
        self, capsys, tmp_path
    ):
        hosts = f"store:{tmp_path}/h0,store:{tmp_path}/h1"
        assert main(
            self._args(tmp_path / "run", "--hosts", hosts)
        ) == 0
        capsys.readouterr()
        # The run dir holds supervisor-side mirrors named exactly like
        # local shard streams, so watch --dir needs no new flags.
        assert main(
            ["campaign", "watch", "--dir", str(tmp_path / "run"), "--once"]
        ) == 0
        out = capsys.readouterr().out
        assert "cli-hosted" in out


class TestTasksCli:
    """`repro campaign --tasks FILE`: the stealing scheduler's worker
    mode, driven directly against a hand-written assignment file."""

    def _spec_and_keys(self):
        from repro.experiments.campaign import (
            CampaignSpec,
            campaign_spec_hash,
            task_key,
        )
        from repro.experiments.scenarios import Scenario

        spec = CampaignSpec(
            name="cli-tasks",
            base=Scenario(
                name="cli-tasks",
                n_nodes=10,
                active_nodes=5,
                message_count=2,
                sim_time=15.0,
                seed=3,
            ),
            protocols=("glr",),
            replicates=2,
        )
        keys = [
            task_key(task)
            for _, cell_spec in spec.cell_specs()
            for task in cell_spec.tasks()
        ]
        return spec, campaign_spec_hash(spec), keys

    def _write_spec(self, tmp_path, spec):
        import json as jsonlib

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(jsonlib.dumps(spec.to_dict()))
        return spec_file

    def _run_args(self, spec_file, tasks_file, stream, *extra):
        return [
            "campaign",
            "--spec",
            str(spec_file),
            "--tasks",
            str(tasks_file),
            "--stream",
            str(stream),
            "--quiet",
            *extra,
        ]

    def test_executes_exactly_the_listed_tasks(self, capsys, tmp_path):
        from repro.experiments.scheduler import write_assignment
        from repro.experiments.stream import load_stream

        spec, spec_hash, keys = self._spec_and_keys()
        spec_file = self._write_spec(tmp_path, spec)
        tasks_file = tmp_path / "w0.tasks.json"
        write_assignment(
            tasks_file, 0, spec_hash, keys[:1], batch=1, closed=True
        )
        stream = tmp_path / "w0.jsonl"
        assert main(self._run_args(spec_file, tasks_file, stream)) == 0
        out = capsys.readouterr().out
        assert "leased subset" in out
        info = load_stream(stream, quarantine=False)
        assert [r["key"] for r in info.records] == keys[:1]

    def test_reruns_skip_recorded_tasks(self, capsys, tmp_path):
        from repro.experiments.scheduler import write_assignment
        from repro.experiments.stream import load_stream

        spec, spec_hash, keys = self._spec_and_keys()
        spec_file = self._write_spec(tmp_path, spec)
        tasks_file = tmp_path / "w0.tasks.json"
        write_assignment(
            tasks_file, 0, spec_hash, keys, batch=2, closed=True
        )
        stream = tmp_path / "w0.jsonl"
        assert main(self._run_args(spec_file, tasks_file, stream)) == 0
        before = stream.read_bytes()
        capsys.readouterr()
        assert main(self._run_args(spec_file, tasks_file, stream)) == 0
        assert "stream: 2 tasks resumed" in capsys.readouterr().out
        assert stream.read_bytes() == before
        assert len(load_stream(stream, quarantine=False).records) == len(
            keys
        )

    def test_requires_stream(self, capsys, tmp_path):
        spec, spec_hash, keys = self._spec_and_keys()
        spec_file = self._write_spec(tmp_path, spec)
        assert (
            main(
                [
                    "campaign",
                    "--spec",
                    str(spec_file),
                    "--tasks",
                    str(tmp_path / "w0.tasks.json"),
                ]
            )
            == 2
        )
        assert "--stream" in capsys.readouterr().err

    def test_conflicts_with_shard_flags(self, capsys, tmp_path):
        spec, spec_hash, keys = self._spec_and_keys()
        spec_file = self._write_spec(tmp_path, spec)
        assert (
            main(
                self._run_args(
                    spec_file,
                    tmp_path / "w0.tasks.json",
                    tmp_path / "s.jsonl",
                    "--shard-index",
                    "0",
                    "--shard-count",
                    "2",
                )
            )
            == 2
        )
        assert "one or the other" in capsys.readouterr().err

    def test_mismatched_assignment_spec_hash_exits_3(
        self, capsys, tmp_path
    ):
        from repro.experiments.scheduler import write_assignment

        spec, _, keys = self._spec_and_keys()
        spec_file = self._write_spec(tmp_path, spec)
        tasks_file = tmp_path / "w0.tasks.json"
        write_assignment(
            tasks_file, 0, "f" * 64, keys[:1], batch=1, closed=True
        )
        code = main(
            self._run_args(
                spec_file, tasks_file, tmp_path / "w0.jsonl"
            )
        )
        assert code == 3
        assert "refusing to mix" in capsys.readouterr().err

    def test_orphaned_worker_exits_4_when_assignment_goes_quiet(
        self, capsys, tmp_path
    ):
        from repro.experiments.scheduler import write_assignment

        spec, spec_hash, _ = self._spec_and_keys()
        spec_file = self._write_spec(tmp_path, spec)
        tasks_file = tmp_path / "w0.tasks.json"
        # No pending work, not closed, and nobody ever touches the
        # file again: exactly what a SIGKILLed supervisor leaves
        # behind.  The worker must exit (code 4), not poll forever.
        write_assignment(
            tasks_file, 0, spec_hash, [], batch=1, closed=False
        )
        code = main(
            self._run_args(
                spec_file, tasks_file, tmp_path / "w0.jsonl",
                "--wait-timeout", "0.3",
            )
        )
        assert code == 4
        assert "supervisor" in capsys.readouterr().err

    def test_negative_wait_timeout_rejected(self, capsys, tmp_path):
        # A typo'd negative must not silently mean "wait forever"
        # (only 0 is the documented sentinel for that).
        spec, spec_hash, _ = self._spec_and_keys()
        spec_file = self._write_spec(tmp_path, spec)
        code = main(
            self._run_args(
                spec_file, tmp_path / "w0.tasks.json",
                tmp_path / "w0.jsonl", "--wait-timeout", "-5",
            )
        )
        assert code == 2
        assert "--wait-timeout" in capsys.readouterr().err

    def test_wait_timeout_without_tasks_rejected(self, capsys, tmp_path):
        # Only the --tasks worker has an idle wait to bound; accepting
        # the flag elsewhere would arm nothing while looking armed.
        spec, _, _ = self._spec_and_keys()
        spec_file = self._write_spec(tmp_path, spec)
        code = main(
            [
                "campaign",
                "--spec",
                str(spec_file),
                "--stream",
                str(tmp_path / "w.jsonl"),
                "--quiet",
                "--wait-timeout",
                "60",
            ]
        )
        assert code == 2
        assert "--tasks" in capsys.readouterr().err

    def test_unknown_task_keys_exit_3(self, capsys, tmp_path):
        from repro.experiments.scheduler import write_assignment

        spec, spec_hash, _ = self._spec_and_keys()
        spec_file = self._write_spec(tmp_path, spec)
        tasks_file = tmp_path / "w0.tasks.json"
        write_assignment(
            tasks_file, 0, spec_hash, ["f" * 64], batch=1, closed=True
        )
        code = main(
            self._run_args(
                spec_file, tasks_file, tmp_path / "w0.jsonl"
            )
        )
        assert code == 3
        assert "does not expand to" in capsys.readouterr().err


class TestWatchCli:
    def _write_stream(self, tmp_path, capsys):
        stream = tmp_path / "w.jsonl"
        args = [
            "campaign",
            "--name",
            "cli-watch",
            "--node-counts",
            "10",
            "--protocols",
            "glr",
            "--replicates",
            "2",
            "--messages",
            "2",
            "--sim-time",
            "15",
            "--quiet",
            "--stream",
            str(stream),
        ]
        assert main(args) == 0
        capsys.readouterr()
        return stream

    def test_watch_once_renders_partial_aggregate(self, capsys, tmp_path):
        stream = self._write_stream(tmp_path, capsys)
        assert main(["campaign", "watch", str(stream), "--once"]) == 0
        out = capsys.readouterr().out
        assert "2/2 tasks recorded" in out
        assert "cli-watch" in out

    def test_watch_dir_globs_shard_streams(self, capsys, tmp_path):
        stream = self._write_stream(tmp_path, capsys)
        stream.rename(tmp_path / "shard0.jsonl")
        assert main(
            ["campaign", "watch", "--dir", str(tmp_path), "--once"]
        ) == 0
        assert "tasks recorded" in capsys.readouterr().out

    def test_watch_needs_streams_or_dir_not_both(self, capsys, tmp_path):
        assert main(["campaign", "watch"]) == 2
        assert "one or the other" in capsys.readouterr().err
        assert (
            main(
                ["campaign", "watch", "x.jsonl", "--dir", str(tmp_path)]
            )
            == 2
        )
        assert "one or the other" in capsys.readouterr().err

    def test_watch_once_with_no_streams_yet_exits_2(self, capsys, tmp_path):
        assert (
            main(["campaign", "watch", "--dir", str(tmp_path), "--once"])
            == 2
        )
        assert "no campaign streams" in capsys.readouterr().err
