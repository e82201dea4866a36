"""Tests for serial and parallel cluster execution.

The headline guarantee: a parallel run produces a bit-identical automaton
(and generated specification program) to a serial run with the same config
and seed, because per-cluster seeds derive from the cluster index and the
oracle is deterministic.
"""

import pytest

from repro.engine.events import ClusterFinished, ClusterStarted, CollectingSink, RunFinished, RunStarted
from repro.engine.executor import (
    ClusterJob,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    run_cluster_job,
)
from repro.engine.persist import fsa_equal, fsa_to_dict
from repro.obs.trace import ambient_sink
from repro.lang.pretty import pretty_program
from repro.learn import Atlas, AtlasConfig

TEST_CLUSTERS = [("Box",), ("StrangeBox",)]


def _config(**overrides):
    defaults = dict(clusters=TEST_CLUSTERS, seed=7, enumeration_budget=2_000)
    defaults.update(overrides)
    return AtlasConfig(**defaults)


@pytest.fixture(scope="module")
def serial_result(library_program, interface):
    atlas = Atlas(library_program, interface, _config())
    return atlas.run(executor=SerialExecutor())


@pytest.fixture(scope="module")
def parallel_result(library_program, interface):
    atlas = Atlas(library_program, interface, _config())
    return atlas.run(executor=ParallelExecutor(max_workers=2))


def test_parallel_fsa_identical_to_serial(serial_result, parallel_result):
    assert fsa_equal(serial_result.fsa, parallel_result.fsa)
    assert fsa_to_dict(serial_result.fsa) == fsa_to_dict(parallel_result.fsa)


def test_parallel_spec_program_identical_to_serial(serial_result, parallel_result):
    assert pretty_program(serial_result.spec_program) == pretty_program(parallel_result.spec_program)


def test_parallel_positives_and_clusters_match_serial(serial_result, parallel_result):
    assert serial_result.positives == parallel_result.positives
    assert len(serial_result.clusters) == len(parallel_result.clusters)
    for serial_cluster, parallel_cluster in zip(serial_result.clusters, parallel_result.clusters):
        assert serial_cluster.classes == parallel_cluster.classes
        assert serial_cluster.positives == parallel_cluster.positives
        assert fsa_equal(serial_cluster.fsa, parallel_cluster.fsa)


def test_parallel_merges_worker_stats(parallel_result):
    stats = parallel_result.oracle_stats
    assert stats.queries > 0
    assert stats.executions > 0


def test_outcomes_arrive_in_cluster_order(library_program, interface):
    atlas = Atlas(library_program, interface, _config())
    jobs = [
        ClusterJob(index=index, classes=tuple(classes), seed=atlas.config.seed + index)
        for index, classes in enumerate(TEST_CLUSTERS)
    ]
    with ambient_sink(CollectingSink(), thread_local=True) as sink:
        outcomes = ParallelExecutor(max_workers=2).run(atlas, jobs)
    assert [outcome.job.index for outcome in outcomes] == [0, 1]
    assert [outcome.result.classes for outcome in outcomes] == [("Box",), ("StrangeBox",)]
    started = sink.of_type(ClusterStarted)
    finished = sink.of_type(ClusterFinished)
    assert {event.index for event in started} == {0, 1}
    assert {event.index for event in finished} == {0, 1}


def test_run_emits_run_level_events(library_program, interface):
    atlas = Atlas(library_program, interface, _config(clusters=[("Box",)]))
    with ambient_sink(CollectingSink(), thread_local=True) as sink:
        atlas.run()
    run_started = sink.of_type(RunStarted)
    run_finished = sink.of_type(RunFinished)
    assert len(run_started) == 1 and run_started[0].num_clusters == 1
    assert len(run_finished) == 1
    assert run_finished[0].oracle_queries > 0
    assert 0.0 <= run_finished[0].hit_rate <= 1.0


def test_run_cluster_job_reuses_cache_snapshot(library_program, interface):
    config = _config(clusters=[("Box",)])
    atlas = Atlas(library_program, interface, config)
    warm_up = atlas.run_cluster(("Box",), seed=config.seed)
    snapshot = atlas.oracle.cached_results()

    result, stats, new_entries, elapsed = run_cluster_job(
        config, library_program, interface, ("Box",), config.seed, snapshot
    )
    assert result.classes == ("Box",)
    assert fsa_equal(result.fsa, warm_up.fsa)
    # every query was answered by the snapshot: nothing executed, nothing new
    assert stats.executions == 0
    assert new_entries == {}
    assert elapsed >= 0.0


def test_make_executor_factory():
    assert isinstance(make_executor(0), SerialExecutor)
    assert isinstance(make_executor(1), SerialExecutor)
    parallel = make_executor(4)
    assert isinstance(parallel, ParallelExecutor)
    assert parallel.max_workers == 4


def test_parallel_executor_with_no_jobs(library_program, interface):
    atlas = Atlas(library_program, interface, _config())
    assert ParallelExecutor().run(atlas, []) == []
