"""Tests for the campaign engine: specs, cache, parallel determinism."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.protocol import GLRConfig
from repro.experiments.campaign import (
    CACHE_FORMAT,
    CampaignSpec,
    ReplicateSpec,
    ReplicateTask,
    ResultCache,
    execute_tasks,
    run_campaign,
    run_replicate_specs,
    task_key,
    task_payload,
)
from repro.experiments.runner import run_replicates
from repro.experiments.scenarios import Scenario
from repro.mobility.registry import MobilityConfig
from repro.sim.adversary import AdversaryConfig

#: Small enough that a full grid with replicates finishes in seconds.
TINY = Scenario(
    name="tiny",
    n_nodes=12,
    active_nodes=6,
    radius=150.0,
    message_count=4,
    sim_time=25.0,
    seed=3,
)


def metrics_fingerprint(metrics):
    """Everything observable about a run, for exact comparisons."""
    return dataclasses.asdict(metrics)


class TestTaskKey:
    def test_stable_for_equal_tasks(self):
        a = ReplicateTask(TINY, "glr", 0)
        b = ReplicateTask(TINY.but(), "glr", 0)
        assert task_key(a) == task_key(b)

    def test_differs_by_seed_protocol_and_config(self):
        base = ReplicateTask(TINY, "glr", 0)
        assert task_key(base) != task_key(
            ReplicateTask(TINY.with_seed(99), "glr", 0)
        )
        assert task_key(base) != task_key(ReplicateTask(TINY, "epidemic", 0))
        assert task_key(base) != task_key(
            ReplicateTask(TINY, "glr", 0, glr_config=GLRConfig(custody=False))
        )
        assert task_key(base) != task_key(
            ReplicateTask(TINY, "glr", 0, buffer_limit=5)
        )

    def test_scenario_name_is_not_code_relevant(self):
        renamed = ReplicateTask(TINY.but(name="other-name"), "glr", 0)
        assert task_key(ReplicateTask(TINY, "glr", 0)) == task_key(renamed)
        assert "name" not in task_payload(renamed)["scenario"]

    def test_payload_is_json_round_trippable(self):
        task = ReplicateTask(
            TINY, "glr", 0, glr_config=GLRConfig(copies_override=3)
        )
        payload = task_payload(task)
        assert json.loads(json.dumps(payload)) == payload
        assert payload["format"] == CACHE_FORMAT

    def test_mobility_config_is_cache_relevant(self):
        base = ReplicateTask(TINY, "glr", 0)
        keys = {
            task_key(ReplicateTask(TINY.but(mobility=m), "glr", 0))
            for m in (
                "rwp",
                "gauss_markov",
                MobilityConfig.of("rpgm", n_groups=2),
                MobilityConfig.of("rpgm", n_groups=5),
            )
        }
        keys.add(task_key(base))  # mobility=None (paper RWP path)
        assert len(keys) == 5

    def test_equivalent_mobility_forms_share_a_key(self):
        a = ReplicateTask(TINY.but(mobility="gauss-markov"), "glr", 0)
        b = ReplicateTask(
            TINY.but(mobility={"model": "gauss_markov"}), "glr", 0
        )
        c = ReplicateTask(
            TINY.but(mobility=MobilityConfig.of("gauss_markov")), "glr", 0
        )
        assert task_key(a) == task_key(b) == task_key(c)
        payload = task_payload(a)
        assert json.loads(json.dumps(payload)) == payload


class TestReplicateSpec:
    def test_tasks_use_replicate_seed_rule(self):
        spec = ReplicateSpec(scenario=TINY, protocol="glr", runs=3)
        seeds = [t.scenario.seed for t in spec.tasks()]
        assert seeds == [TINY.seed, TINY.seed + 1000, TINY.seed + 2000]

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            ReplicateSpec(scenario=TINY, protocol="glr", runs=0)


class TestCache:
    def _one_task(self):
        return ReplicateSpec(scenario=TINY, protocol="glr", runs=1).tasks()[0]

    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = self._one_task()
        [metrics] = execute_tasks([task], cache=cache)
        assert cache.misses == 1 and cache.hits == 0
        loaded = cache.load(task)
        assert loaded == metrics
        assert cache.hits == 1

    def test_cached_entry_is_actually_used(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = self._one_task()
        execute_tasks([task], cache=cache)
        # Tamper with a stored metric: if the second execution returns
        # the sentinel, it came from the cache, not a re-simulation.
        path = cache.path_for(task_key(task))
        payload = json.loads(path.read_text())
        payload["metrics"]["events_processed"] = 987654321
        path.write_text(json.dumps(payload))
        [resumed] = execute_tasks([task], cache=cache)
        assert resumed.events_processed == 987654321

    def test_corrupt_json_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = self._one_task()
        [metrics] = execute_tasks([task], cache=cache)
        path = cache.path_for(task_key(task))
        path.write_text("{ not json !!!")
        [recomputed] = execute_tasks([task], cache=cache)
        assert recomputed == metrics
        # ... and the corrupt entry was repaired in place.
        assert cache.load(task) == metrics

    def test_partial_entry_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = self._one_task()
        [metrics] = execute_tasks([task], cache=cache)
        path = cache.path_for(task_key(task))
        payload = json.loads(path.read_text())
        del payload["metrics"]["delivery_ratio"]
        path.write_text(json.dumps(payload))
        assert cache.load(task) is None
        [recomputed] = execute_tasks([task], cache=cache)
        assert recomputed == metrics

    def test_extra_field_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = self._one_task()
        execute_tasks([task], cache=cache)
        path = cache.path_for(task_key(task))
        payload = json.loads(path.read_text())
        payload["metrics"]["bogus_field"] = 1
        path.write_text(json.dumps(payload))
        assert cache.load(task) is None

    def test_format_version_mismatch_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = self._one_task()
        execute_tasks([task], cache=cache)
        path = cache.path_for(task_key(task))
        payload = json.loads(path.read_text())
        payload["format"] = CACHE_FORMAT + 1
        path.write_text(json.dumps(payload))
        assert cache.load(task) is None

    def test_protocol_mismatch_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = self._one_task()
        execute_tasks([task], cache=cache)
        path = cache.path_for(task_key(task))
        payload = json.loads(path.read_text())
        payload["metrics"]["protocol"] = "epidemic"
        path.write_text(json.dumps(payload))
        assert cache.load(task) is None

    def test_per_node_storage_keys_restored_as_ints(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = self._one_task()
        [metrics] = execute_tasks([task], cache=cache)
        loaded = cache.load(task)
        assert loaded.per_node_peak_storage == metrics.per_node_peak_storage
        assert all(
            isinstance(k, int) for k in loaded.per_node_peak_storage
        )


class TestDeterminism:
    def test_parallel_matches_serial_per_replicate(self):
        """Core hazard check: workers=4 must be bit-identical to serial."""
        spec = ReplicateSpec(scenario=TINY, protocol="glr", runs=4)
        [serial] = run_replicate_specs([spec], workers=1)
        [parallel] = run_replicate_specs([spec], workers=4)
        assert len(serial) == len(parallel) == 4
        for s, p in zip(serial, parallel):
            assert metrics_fingerprint(s) == metrics_fingerprint(p)

    def test_engine_matches_run_replicates_reference(self):
        """The serial reference path and the engine agree exactly."""
        reference = run_replicates(TINY, "glr", runs=2)
        spec = ReplicateSpec(scenario=TINY, protocol="glr", runs=2)
        [engine] = run_replicate_specs([spec], workers=2)
        for r, e in zip(reference, engine):
            assert metrics_fingerprint(r) == metrics_fingerprint(e)

    def test_run_replicates_workers_path_identical(self):
        reference = run_replicates(TINY, "epidemic", runs=2)
        parallel = run_replicates(TINY, "epidemic", runs=2, workers=2)
        for r, p in zip(reference, parallel):
            assert metrics_fingerprint(r) == metrics_fingerprint(p)

    def test_run_replicates_cache_dir_path(self, tmp_path):
        first = run_replicates(
            TINY, "glr", runs=2, cache_dir=str(tmp_path)
        )
        second = run_replicates(
            TINY, "glr", runs=2, cache_dir=str(tmp_path)
        )
        for a, b in zip(first, second):
            assert metrics_fingerprint(a) == metrics_fingerprint(b)


class TestExecuteTasks:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            execute_tasks([], workers=0)

    def test_preserves_input_order(self):
        specs = [
            ReplicateSpec(scenario=TINY, protocol="glr", runs=2),
            ReplicateSpec(
                scenario=TINY.but(radius=100.0), protocol="epidemic", runs=2
            ),
        ]
        tasks = [t for s in specs for t in s.tasks()]
        results = execute_tasks(tasks, workers=4)
        for task, metrics in zip(tasks, results):
            assert metrics.protocol == task.protocol

    def test_progress_reports_every_task(self, tmp_path):
        spec = ReplicateSpec(scenario=TINY, protocol="glr", runs=3)
        events = []
        execute_tasks(
            spec.tasks(),
            cache=ResultCache(tmp_path),
            progress=events.append,
        )
        assert [e.done for e in events] == [1, 2, 3]
        assert all(e.total == 3 and not e.cached for e in events)
        events.clear()
        execute_tasks(
            spec.tasks(),
            cache=ResultCache(tmp_path),
            progress=events.append,
        )
        assert all(e.cached for e in events)


class TestCampaignSpec:
    def _spec(self):
        return CampaignSpec(
            name="grid",
            base=TINY,
            grid=(("radius", (100.0, 150.0)), ("message_count", (2, 4))),
            protocols=("glr", "epidemic"),
            replicates=2,
        )

    def test_grid_expansion(self):
        spec = self._spec()
        scenarios = spec.scenarios()
        assert len(scenarios) == 4
        assert scenarios[0].name == "grid/radius=100.0,message_count=2"
        assert spec.total_tasks() == 4 * 2 * 2

    def test_empty_grid_is_single_scenario(self):
        spec = CampaignSpec(name="solo", base=TINY)
        assert [s.name for s in spec.scenarios()] == ["solo"]

    def test_rejects_unknown_protocol_and_field(self):
        with pytest.raises(ValueError):
            CampaignSpec(name="x", base=TINY, protocols=("warp",))
        with pytest.raises(ValueError):
            CampaignSpec(name="x", base=TINY, grid=(("warp_factor", (1,)),))
        with pytest.raises(ValueError):
            CampaignSpec(name="x", base=TINY, replicates=0)

    def test_rejects_duplicate_grid_values(self):
        # Duplicate values would expand to identically named cells that
        # silently overwrite each other in the campaign result map.
        with pytest.raises(ValueError, match="duplicate"):
            CampaignSpec(
                name="x", base=TINY, grid=(("radius", (100.0, 100.0)),)
            )

    def test_dict_round_trip(self):
        spec = self._spec()
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert rebuilt == spec

    def test_from_dict_region_pair(self):
        spec = CampaignSpec.from_dict(
            {
                "name": "doc",
                "base": {"region": [800, 200], "n_nodes": 10,
                         "active_nodes": 5},
                "grid": {"radius": [50.0, 100.0]},
                "protocols": ["glr"],
                "replicates": 2,
            }
        )
        assert spec.base.region.width == 800.0
        assert len(spec.scenarios()) == 2

    def test_from_dict_rejects_unknown_base_field(self):
        with pytest.raises(ValueError):
            CampaignSpec.from_dict({"name": "x", "base": {"warp": 9}})


class TestMobilityAxis:
    """The tentpole acceptance: one spec sweeping >= 4 movement models."""

    def _spec(self, replicates=1):
        return CampaignSpec(
            name="mob",
            base=TINY,
            grid=(
                ("mobility", ("rwp", "gauss-markov", "rpgm", "manhattan")),
            ),
            protocols=("glr",),
            replicates=replicates,
        )

    def test_grid_values_coerced_to_configs(self):
        spec = self._spec()
        (field, values), = spec.grid
        assert field == "mobility"
        assert all(isinstance(v, MobilityConfig) for v in values)
        names = [s.name for s in spec.scenarios()]
        assert names == [
            "mob/mobility=random_waypoint",
            "mob/mobility=gauss_markov",
            "mob/mobility=rpgm",
            "mob/mobility=manhattan",
        ]

    def test_duplicate_models_rejected_across_forms(self):
        # "rwp" and "random_waypoint" are the same model; the coerced
        # values must collide in the duplicate check.
        with pytest.raises(ValueError, match="duplicate"):
            CampaignSpec(
                name="dup",
                base=TINY,
                grid=(("mobility", ("rwp", "random_waypoint")),),
            )

    def test_parallel_matches_serial_across_models(self):
        spec = self._spec()
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=4)
        assert set(serial.metrics) == set(parallel.metrics)
        assert len(serial.metrics) == 4
        for cell in serial.metrics:
            for s, p in zip(serial.metrics[cell], parallel.metrics[cell]):
                assert metrics_fingerprint(s) == metrics_fingerprint(p)

    def test_cache_resume_is_bit_identical(self, tmp_path):
        spec = self._spec()
        cold = run_campaign(spec, workers=2, cache_dir=tmp_path)
        assert cold.cache_misses == 4 and cold.cache_hits == 0
        resumed = run_campaign(spec, workers=2, cache_dir=tmp_path)
        assert resumed.cache_hits == 4 and resumed.cache_misses == 0
        for cell in cold.metrics:
            for a, b in zip(cold.metrics[cell], resumed.metrics[cell]):
                assert metrics_fingerprint(a) == metrics_fingerprint(b)

    def test_dict_round_trip_with_mobility(self):
        spec = CampaignSpec(
            name="rt",
            base=TINY.but(mobility="gauss-markov"),
            grid=(
                (
                    "mobility",
                    (
                        MobilityConfig.of("rpgm", n_groups=2),
                        MobilityConfig.of("manhattan", blocks_x=4),
                    ),
                ),
            ),
            protocols=("glr",),
            replicates=2,
        )
        document = json.loads(json.dumps(spec.to_dict()))
        assert CampaignSpec.from_dict(document) == spec


class TestRunCampaign:
    def test_end_to_end_with_cache_resume(self, tmp_path):
        spec = CampaignSpec(
            name="e2e",
            base=TINY,
            grid=(("radius", (100.0, 150.0)),),
            protocols=("glr", "epidemic"),
            replicates=3,
        )
        first = run_campaign(spec, workers=2, cache_dir=tmp_path)
        assert first.cache_misses == spec.total_tasks() == 12
        assert first.cache_hits == 0
        assert set(first.metrics) == {
            (scenario.name, str(protocol))
            for scenario in spec.scenarios()
            for protocol in spec.protocols
        }

        resumed = run_campaign(spec, workers=2, cache_dir=tmp_path)
        assert resumed.cache_hits == 12
        assert resumed.cache_misses == 0
        for cell, runs in first.metrics.items():
            for a, b in zip(runs, resumed.metrics[cell]):
                assert metrics_fingerprint(a) == metrics_fingerprint(b)
        assert "100.0% hit rate" in resumed.cache_line()

    def test_summaries_and_render(self, tmp_path):
        spec = CampaignSpec(name="render", base=TINY, replicates=2)
        result = run_campaign(spec, cache_dir=tmp_path)
        summaries = result.summaries()
        assert ("render", "glr") in summaries
        assert summaries[("render", "glr")].runs == 2
        text = result.render()
        assert "render" in text and "glr" in text
        assert "cache:" in result.cache_line()

    def test_cache_line_disabled_without_cache_dir(self):
        spec = CampaignSpec(name="nocache", base=TINY, replicates=1)
        result = run_campaign(spec)
        assert result.cache_line() == "cache: disabled"


class TestTasksWorkerIdleTimeout:
    """The ``--tasks`` worker's orphan bound: a quiet, unclosed
    assignment file means the supervisor died — the worker must stop
    polling after ``wait_timeout`` instead of orbiting forever."""

    def _spec(self):
        return CampaignSpec(name="idle", base=TINY, replicates=1)

    def _empty_assignment(self, tmp_path, spec, closed=False, version=0):
        from repro.experiments.campaign import campaign_spec_hash
        from repro.experiments.scheduler import write_assignment

        tasks_file = tmp_path / "w0.tasks.json"
        write_assignment(
            tasks_file, 0, campaign_spec_hash(spec), [], batch=1,
            closed=closed, version=version,
        )
        return tasks_file

    def test_quiet_unclosed_assignment_times_out(self, tmp_path):
        from repro.experiments.scheduler import AssignmentIdleTimeout

        spec = self._spec()
        tasks_file = self._empty_assignment(tmp_path, spec)
        with pytest.raises(AssignmentIdleTimeout, match="supervisor"):
            run_campaign(
                spec,
                stream_path=tmp_path / "w0.jsonl",
                tasks_file=tasks_file,
                wait_interval=0.05,
                wait_timeout=0.2,
            )

    def test_supervisor_touches_reset_the_idle_clock(self, tmp_path):
        import os
        import threading
        import time as time_module

        from repro.experiments.campaign import campaign_spec_hash
        from repro.experiments.scheduler import write_assignment

        spec = self._spec()
        tasks_file = self._empty_assignment(tmp_path, spec)

        def supervisor():
            # Freshen the file's mtime well past the worker's timeout
            # (the live supervisor's per-tick beacon), then close it.
            # The timeout is several multiples of the touch period (and
            # of a 1 s coarse-mtime granularity), so a loaded machine
            # cannot flake this into a spurious AssignmentIdleTimeout.
            deadline = time_module.monotonic() + 2.5
            while time_module.monotonic() < deadline:
                os.utime(tasks_file)
                time_module.sleep(0.1)
            write_assignment(
                tasks_file, 0, campaign_spec_hash(spec), [], batch=1,
                closed=True, version=1,
            )

        thread = threading.Thread(target=supervisor)
        thread.start()
        try:
            result = run_campaign(
                spec,
                stream_path=tmp_path / "w0.jsonl",
                tasks_file=tasks_file,
                wait_interval=0.05,
                wait_timeout=1.5,
            )
        finally:
            thread.join()
        assert result.metrics == {}  # nothing leased, clean exit

    def test_bad_wait_timeout_rejected(self, tmp_path):
        spec = self._spec()
        tasks_file = self._empty_assignment(tmp_path, spec, closed=True)
        with pytest.raises(ValueError, match="wait_timeout"):
            run_campaign(
                spec,
                stream_path=tmp_path / "w0.jsonl",
                tasks_file=tasks_file,
                wait_timeout=0.0,
            )


class TestProtocolAxis:
    """The v2 tentpole: protocol-config variants as a sweep axis."""

    def _spec(self):
        from repro.experiments.protocols import ProtocolConfig

        return CampaignSpec(
            name="proto",
            base=TINY,
            protocols=(
                "glr",
                ProtocolConfig.of("glr", custody=False),
                {"protocol": "epidemic", "params": {"request_batch": 4}},
            ),
            replicates=1,
        )

    def test_protocols_coerced_to_configs(self):
        from repro.experiments.protocols import ProtocolConfig

        spec = self._spec()
        assert all(isinstance(p, ProtocolConfig) for p in spec.protocols)
        labels = [str(p) for p in spec.protocols]
        assert labels == [
            "glr",
            "glr(custody=False)",
            "epidemic(request_batch=4)",
        ]

    def test_duplicate_variants_rejected_across_forms(self):
        from repro.experiments.protocols import ProtocolConfig

        with pytest.raises(ValueError, match="duplicate"):
            CampaignSpec(
                name="dup",
                base=TINY,
                protocols=("glr", ProtocolConfig.of("glr")),
            )

    def test_bad_param_fails_at_spec_load(self):
        with pytest.raises(ValueError, match="does not accept"):
            CampaignSpec(
                name="x",
                base=TINY,
                protocols=({"protocol": "glr", "chek_interval": 1.0},),
            )

    def test_same_protocol_different_configs_distinct_cells(self):
        spec = self._spec()
        result = run_campaign(spec)
        assert set(result.metrics) == {
            ("proto", "glr"),
            ("proto", "glr(custody=False)"),
            ("proto", "epidemic(request_batch=4)"),
        }

    def test_variant_metrics_match_explicit_config_runs(self):
        from repro.experiments.protocols import ProtocolConfig
        from repro.experiments.runner import run_single

        spec = CampaignSpec(
            name="match",
            base=TINY,
            protocols=(ProtocolConfig.of("glr", custody=False),),
            replicates=1,
        )
        result = run_campaign(spec)
        [[campaign_metrics]] = result.metrics.values()
        direct = run_single(
            TINY, "glr", glr_config=GLRConfig(custody=False)
        )
        assert metrics_fingerprint(campaign_metrics) == metrics_fingerprint(
            direct
        )

    def test_dict_round_trip_with_protocol_params(self):
        spec = self._spec()
        document = json.loads(json.dumps(spec.to_dict()))
        assert CampaignSpec.from_dict(document) == spec

    def test_plain_protocols_serialise_as_strings(self):
        spec = CampaignSpec(
            name="plain", base=TINY, protocols=("glr", "epidemic")
        )
        assert spec.to_dict()["protocols"] == ["glr", "epidemic"]

    def test_task_keys_distinct_per_variant(self):
        spec = self._spec()
        keys = {task_key(t) for s in spec.specs() for t in s.tasks()}
        assert len(keys) == spec.total_tasks()

    def test_paramless_config_normalises_to_none_in_spec(self):
        # ReplicateSpec(protocol="glr") and
        # ReplicateSpec(..., protocol_config=ProtocolConfig.of("glr"))
        # are the same logical cell; their tasks must share cache keys
        # and stream identities.
        from repro.experiments.protocols import ProtocolConfig

        bare = ReplicateSpec(scenario=TINY, protocol="glr", runs=1)
        via_config = ReplicateSpec(
            scenario=TINY,
            protocol="glr",
            runs=1,
            protocol_config=ProtocolConfig.of("glr"),
        )
        assert via_config.protocol_config is None
        assert task_key(via_config.tasks()[0]) == task_key(
            bare.tasks()[0]
        )

    def test_spec_rejects_protocol_config_plus_concrete_config(self):
        # The conflict must surface at spec build time, not inside a
        # worker process mid-campaign.
        from repro.experiments.protocols import ProtocolConfig

        with pytest.raises(ValueError, match="not both"):
            ReplicateSpec(
                scenario=TINY,
                protocol="glr",
                glr_config=GLRConfig(custody=False),
                protocol_config=ProtocolConfig.of("glr", custody=False),
            )

    def test_bare_variant_tasks_have_no_protocol_config(self):
        # ProtocolConfig with no params must key identically to the
        # pre-axis engine.
        spec = CampaignSpec(
            name="bare", base=TINY, protocols=("glr",), replicates=1
        )
        [cell] = spec.specs()
        assert cell.protocol_config is None
        [task] = cell.tasks()
        assert task.protocol_config is None
        assert task.protocol_label == "glr"


class TestGridOrderRoundTrip:
    def test_grid_axis_order_survives_sorted_json(self):
        """Sorted-key JSON encoders must not reorder sweep axes."""
        spec = CampaignSpec(
            name="order",
            base=TINY,
            # 'radius' sorts after 'message_count'; an object-shaped
            # grid would flip them and rename every cell.
            grid=(("radius", (100.0, 150.0)), ("message_count", (2, 4))),
            replicates=1,
        )
        document = json.loads(json.dumps(spec.to_dict(), sort_keys=True))
        rebuilt = CampaignSpec.from_dict(document)
        assert rebuilt == spec
        assert [s.name for s in rebuilt.scenarios()] == [
            s.name for s in spec.scenarios()
        ]

    def test_mapping_grid_still_accepted(self):
        spec = CampaignSpec.from_dict(
            {
                "name": "legacy",
                "base": {"n_nodes": 10, "active_nodes": 5,
                         "message_count": 2, "sim_time": 15.0},
                "grid": {"radius": [100.0, 150.0]},
                "protocols": ["glr"],
                "replicates": 1,
            }
        )
        assert len(spec.scenarios()) == 2


class TestMergeCaches:
    def test_union_copies_missing_entries(self, tmp_path):
        from repro.experiments.campaign import merge_caches

        spec = ReplicateSpec(scenario=TINY, protocol="glr", runs=2)
        tasks = spec.tasks()
        cache_a = ResultCache(tmp_path / "a")
        cache_b = ResultCache(tmp_path / "b")
        execute_tasks(tasks[:1], cache=cache_a)
        execute_tasks(tasks[1:], cache=cache_b)

        copied = merge_caches(
            tmp_path / "union", [tmp_path / "a", tmp_path / "b"]
        )
        assert copied == 2
        union = ResultCache(tmp_path / "union")
        assert union.load(tasks[0]) is not None
        assert union.load(tasks[1]) is not None

    def test_existing_entries_not_recopied(self, tmp_path):
        from repro.experiments.campaign import merge_caches

        spec = ReplicateSpec(scenario=TINY, protocol="glr", runs=1)
        cache = ResultCache(tmp_path / "a")
        execute_tasks(spec.tasks(), cache=cache)
        assert merge_caches(tmp_path / "u", [tmp_path / "a"]) == 1
        assert merge_caches(tmp_path / "u", [tmp_path / "a"]) == 0

    def test_missing_dir_rejected(self, tmp_path):
        from repro.experiments.campaign import merge_caches

        with pytest.raises(ValueError, match="does not exist"):
            merge_caches(tmp_path / "u", [tmp_path / "nope"])


class TestAdversaryAxis:
    """Adversary injection as a campaign axis with stable cache keys."""

    def _spec(self, replicates=1):
        return CampaignSpec(
            name="adv",
            base=TINY,
            grid=(
                ("adversary", (None, "blackhole:0.25", "liar:0.25")),
            ),
            protocols=("epidemic",),
            replicates=replicates,
        )

    def test_grid_values_coerced_to_configs(self):
        spec = self._spec()
        (field, values), = spec.grid
        assert field == "adversary"
        assert values[0] is None
        assert all(
            isinstance(v, AdversaryConfig) for v in values[1:]
        )
        names = [s.name for s in spec.scenarios()]
        assert names == [
            "adv/adversary=none",
            "adv/adversary=blackhole:0.25",
            "adv/adversary=location_lying:0.25",
        ]

    def test_adversary_is_cache_relevant(self):
        base = ReplicateTask(TINY, "epidemic", 0)
        keys = {
            task_key(
                ReplicateTask(TINY.but(adversary=a), "epidemic", 0)
            )
            for a in (
                "blackhole:0.1",
                "blackhole:0.3",
                "selective_drop:0.3",
                AdversaryConfig.of("selective_drop", 0.3, drop_rate=0.9),
            )
        }
        keys.add(task_key(base))
        assert len(keys) == 5

    def test_honest_cell_keys_like_pre_axis_tasks(self):
        # fraction=0 and "no adversary" are the same spelling: honest
        # tasks must hit caches written before the axis existed.
        honest = ReplicateTask(
            TINY.but(adversary="blackhole:0"), "epidemic", 0
        )
        assert task_key(honest) == task_key(
            ReplicateTask(TINY, "epidemic", 0)
        )
        assert "adversary" not in task_payload(honest)["scenario"]

    def test_equivalent_forms_share_a_key(self):
        a = ReplicateTask(TINY.but(adversary="greyhole:0.25"), "epidemic", 0)
        b = ReplicateTask(
            TINY.but(adversary={"mode": "selective_drop", "fraction": 0.25}),
            "epidemic",
            0,
        )
        assert task_key(a) == task_key(b)
        payload = task_payload(a)
        assert json.loads(json.dumps(payload)) == payload

    def test_parallel_matches_serial_across_cells(self):
        spec = self._spec()
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=3)
        assert set(serial.metrics) == set(parallel.metrics)
        assert len(serial.metrics) == 3
        for cell in serial.metrics:
            for s, p in zip(serial.metrics[cell], parallel.metrics[cell]):
                assert metrics_fingerprint(s) == metrics_fingerprint(p)

    def test_cache_resume_is_bit_identical(self, tmp_path):
        spec = self._spec()
        cold = run_campaign(spec, workers=2, cache_dir=tmp_path)
        assert cold.cache_misses == 3 and cold.cache_hits == 0
        resumed = run_campaign(spec, workers=2, cache_dir=tmp_path)
        assert resumed.cache_hits == 3 and resumed.cache_misses == 0
        for cell in cold.metrics:
            for a, b in zip(cold.metrics[cell], resumed.metrics[cell]):
                assert metrics_fingerprint(a) == metrics_fingerprint(b)

    def test_duplicate_specs_rejected_across_forms(self):
        with pytest.raises(ValueError, match="duplicate"):
            CampaignSpec(
                name="dup",
                base=TINY,
                grid=(
                    ("adversary", ("greyhole:0.2", "selective_drop:0.2")),
                ),
            )

    def test_dict_round_trip_with_adversary(self):
        spec = CampaignSpec(
            name="rt",
            base=TINY.but(adversary="blackhole:0.2"),
            grid=(
                (
                    "adversary",
                    (
                        None,
                        AdversaryConfig.of(
                            "selective_drop", 0.3, drop_rate=0.9
                        ),
                    ),
                ),
            ),
            protocols=("epidemic",),
            replicates=2,
        )
        document = json.loads(json.dumps(spec.to_dict()))
        assert CampaignSpec.from_dict(document) == spec

    def test_delivery_degrades_across_the_axis(self):
        result = run_campaign(self._spec(), workers=3)
        by_cell = {
            scenario: summary.delivery_ratio.mean
            for (scenario, _), summary in result.summaries().items()
        }
        honest = by_cell["adv/adversary=none"]
        assert by_cell["adv/adversary=blackhole:0.25"] < honest
