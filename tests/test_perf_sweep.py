"""Tests for the parallel sweep runner and its on-disk result cache.

The load-bearing property is *byte-identical determinism*: for the same
configs, the serial path, the process-pool path, and the cached path
must produce results that serialize to the exact same JSON payloads, so
experiment tables regenerate identically however they were computed.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.channel.delay import UniformDelay
from repro.channel.impairments import BernoulliLoss, FrameCorruption
from repro.perf.cache import ResultCache, config_digest
from repro.perf.sweep import (
    RunConfig,
    SweepRunner,
    default_jobs,
    deserialize_result,
    execute_config,
    run_protocol_grid,
    serialize_result,
)
from repro.robustness.faults import CrashRestart, FaultPlan
from repro.sim.runner import LinkSpec


def lossy_link(p=0.05):
    return LinkSpec(delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(p))


def make_grid(seeds=(0, 1, 2), protocol="blockack", **kwargs):
    return [
        RunConfig(
            protocol=protocol, window=4, total=60,
            forward=lossy_link(), reverse=lossy_link(), seed=seed,
            max_time=100_000.0, protocol_kwargs=dict(kwargs),
        )
        for seed in seeds
    ]


class TestRunConfigKeys:
    def test_cache_key_is_stable(self):
        a, b = make_grid(seeds=(5, 5))
        assert a.cache_key() == b.cache_key()

    def test_cache_key_distinguishes_seed(self):
        a, b = make_grid(seeds=(5, 6))
        assert a.cache_key() != b.cache_key()

    def test_cache_key_distinguishes_protocol_kwargs(self):
        (a,) = make_grid(seeds=(5,))
        (b,) = make_grid(seeds=(5,), timeout_mode="per_message_safe")
        assert a.cache_key() != b.cache_key()

    def test_cache_key_distinguishes_links(self):
        (a,) = make_grid(seeds=(5,))
        b = RunConfig(
            protocol="blockack", window=4, total=60,
            forward=lossy_link(0.2), reverse=lossy_link(), seed=5,
            max_time=100_000.0,
        )
        assert a.cache_key() != b.cache_key()

    def test_cache_key_covers_fault_plan(self):
        def with_plan(at):
            return RunConfig(
                protocol="blockack", window=4, total=60,
                forward=lossy_link(), reverse=lossy_link(), seed=5,
                max_time=100_000.0,
                fault_plan=FaultPlan(
                    forward_corruption=FrameCorruption(0.01),
                    crashes=(CrashRestart(at=at, outage=5.0,
                                          endpoint="sender"),),
                    seed=5,
                ),
            )

        assert with_plan(30.0).cache_key() != with_plan(40.0).cache_key()
        assert with_plan(30.0).cache_key() == with_plan(30.0).cache_key()

    def test_cache_key_is_the_description_digest(self):
        (config,) = make_grid(seeds=(1,))
        assert config.cache_key() == config_digest(config.description())

    # Literal digests: every on-disk cache entry is addressed by these
    # keys, so a config-schema change that silently re-keys existing
    # configs (dropping a field, reordering the description) fails here.
    @pytest.mark.parametrize("extra, key", [
        ({}, "0968054050684c773f2d73ec022e5e5f"
             "fa32ce64c2e9ff168ebb5e3e2d2765eb"),
        ({"link_rate": 4.0}, "667fab2f0ce52f5aa9abc5a13f8bc8f6"
                             "b8de5adc94bd9cf0955d3f4821103fce"),
        ({"causal": True}, "b31b2b21a72c16432ddff886b7e31031"
                           "3fa0bd1c383394fc2347354354d36669"),
    ], ids=["flows1-default", "link-rate", "causal"])
    def test_cache_keys_pinned(self, extra, key):
        (config,) = make_grid(seeds=(5,))
        config = replace(config, **extra)
        assert config.flows == 1
        assert config.cache_key() == key

    # Literal digests of the serialized results themselves: a cache hit
    # replays these payloads, so the single-flow harness must reproduce
    # them exactly (the telemetry paths depend on the working directory
    # and are left out).
    @pytest.mark.parametrize("extra, digest", [
        ({}, "82a08b66439502de4690f50af7c33e41"
             "6acc8b5e53a394b6e6dcbf92ac8ea770"),
        ({"link_rate": 4.0}, "6f2a00b6bfe2a0f2e0577c102f6bfef5"
                             "26e22b6fedaeee85520373130ee6e13b"),
        ({"causal": True}, "82a08b66439502de4690f50af7c33e41"
                           "6acc8b5e53a394b6e6dcbf92ac8ea770"),
        ({"fault_plan": FaultPlan(
            forward_corruption=FrameCorruption(0.01),
            crashes=(CrashRestart(at=30.0, outage=5.0, endpoint="sender"),),
            seed=5,
        )}, "01195fdb1857ca07dbbff79b689df7ce"
            "b42498d9d53a6803474f74c5182d165b"),
    ], ids=["flows1-default", "link-rate", "causal", "fault-plan"])
    def test_result_payloads_pinned(self, extra, digest):
        (config,) = make_grid(seeds=(5,))
        config = replace(config, **extra)
        assert config.flows == 1
        payload = serialize_result(execute_config(config))
        payload.pop("obs_path")
        payload.pop("flight_path")
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestDeterminism:
    def test_serial_matches_direct_execution(self):
        configs = make_grid()
        results = SweepRunner(jobs=1, cache=False).run(configs)
        direct = [execute_config(config) for config in configs]
        assert [serialize_result(r) for r in results] == [
            serialize_result(r) for r in direct
        ]

    def test_parallel_byte_identical_to_serial(self):
        configs = make_grid()
        serial = SweepRunner(jobs=1, cache=False).run(configs)
        parallel = SweepRunner(jobs=2, cache=False).run(make_grid())
        serial_json = [
            json.dumps(serialize_result(r), sort_keys=True) for r in serial
        ]
        parallel_json = [
            json.dumps(serialize_result(r), sort_keys=True) for r in parallel
        ]
        assert serial_json == parallel_json

    def test_results_come_back_in_config_order(self):
        seeds = (9, 2, 7, 0)
        results = SweepRunner(jobs=2, cache=False).run(make_grid(seeds=seeds))
        assert len(results) == len(seeds)
        # different seeds give different durations; re-running serially in
        # the same order must reproduce the exact sequence
        again = SweepRunner(jobs=1, cache=False).run(make_grid(seeds=seeds))
        assert [r.duration for r in results] == [r.duration for r in again]

    def test_serialize_round_trip(self):
        (config,) = make_grid(seeds=(3,))
        result = execute_config(config)
        clone = deserialize_result(serialize_result(result))
        assert clone.completed == result.completed
        assert clone.duration == result.duration
        assert clone.delivered == result.delivered
        assert clone.sender_stats == result.sender_stats
        assert clone.latencies == result.latencies


class TestCache:
    def test_cold_then_warm(self, tmp_path):
        configs = make_grid()
        cold = SweepRunner(jobs=1, cache=tmp_path)
        first = cold.run(configs)
        assert cold.executed == len(configs)
        assert cold.cached == 0

        warm = SweepRunner(jobs=1, cache=tmp_path)
        second = warm.run(make_grid())
        assert warm.executed == 0
        assert warm.cached == len(configs)
        assert [serialize_result(r) for r in first] == [
            serialize_result(r) for r in second
        ]

    def test_partial_hit_executes_only_missing(self, tmp_path):
        SweepRunner(jobs=1, cache=tmp_path).run(make_grid(seeds=(0, 1)))
        runner = SweepRunner(jobs=1, cache=tmp_path)
        runner.run(make_grid(seeds=(0, 1, 2)))
        assert runner.cached == 2
        assert runner.executed == 1

    def test_cache_disabled_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        runner = SweepRunner(jobs=1)
        runner.run(make_grid(seeds=(0,)))
        assert runner.cache is None

    def test_cache_files_are_versioned_json(self, tmp_path):
        SweepRunner(jobs=1, cache=tmp_path).run(make_grid(seeds=(0,)))
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        entry = json.loads(files[0].read_text())
        assert entry["version"] >= 1
        assert "result" in entry and "config" in entry

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        configs = make_grid(seeds=(0,))
        SweepRunner(jobs=1, cache=tmp_path).run(configs)
        (file,) = tmp_path.glob("*.json")
        file.write_text("not json{")
        runner = SweepRunner(jobs=1, cache=tmp_path)
        results = runner.run(make_grid(seeds=(0,)))
        assert runner.executed == 1
        assert results[0].completed

    def test_result_cache_counts_hits_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("deadbeef") is None
        cache.put("deadbeef", "desc", {"x": 1})
        assert cache.get("deadbeef") == {"x": 1}
        assert cache.hits == 1
        assert cache.misses == 1


class TestEnvKnobs:
    def test_default_jobs_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert default_jobs() == 4

    def test_default_jobs_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            default_jobs()

    def test_run_protocol_grid_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        results = run_protocol_grid(make_grid(seeds=(0,)))
        assert results[0].completed
        assert list(tmp_path.glob("*.json"))


class TestMonitorSummary:
    def test_monitor_survives_serialization(self):
        (config,) = make_grid(seeds=(2,))
        config.monitor_invariants = True
        result = deserialize_result(serialize_result(execute_config(config)))
        assert result.monitor is not None
        assert result.monitor.ok
        assert result.monitor.violations == []

    def test_no_monitor_stays_none(self):
        (config,) = make_grid(seeds=(2,))
        result = deserialize_result(serialize_result(execute_config(config)))
        assert result.monitor is None
