"""End-to-end tests for the InferenceEngine facade.

The acceptance bar: a warm engine run (pre-populated cache, unchanged
library fingerprint) executes zero interpreter witnesses and produces an
automaton identical to the cold run.
"""

import os

import pytest

from repro.engine import CacheFlushed, CollectingSink, InferenceEngine, fsa_equal
from repro.engine.events import RunFinished, RunStarted
from repro.lang.pretty import pretty_program
from repro.learn import AtlasConfig
from repro.obs.trace import ambient_sink


def _config():
    return AtlasConfig(clusters=[("Box",), ("StrangeBox",)], seed=7, enumeration_budget=2_000)


def test_warm_run_executes_zero_witnesses(tmp_path, library_program, interface):
    cache_dir = str(tmp_path / "cache")
    cold_engine = InferenceEngine(cache_dir=cache_dir)
    cold = cold_engine.run(_config(), library_program=library_program, interface=interface)
    assert cold.oracle_stats.executions > 0
    assert os.path.exists(os.path.join(cache_dir, InferenceEngine.CACHE_FILENAME))

    warm_engine = InferenceEngine(cache_dir=cache_dir)
    warm = warm_engine.run(_config(), library_program=library_program, interface=interface)
    assert warm.oracle_stats.executions == 0
    assert warm.oracle_stats.cache_hits == warm.oracle_stats.queries
    assert fsa_equal(cold.fsa, warm.fsa)
    assert pretty_program(cold.spec_program) == pretty_program(warm.spec_program)


def test_warm_parallel_run_matches_cold_serial(tmp_path, library_program, interface):
    cache_dir = str(tmp_path / "cache")
    cold = InferenceEngine(cache_dir=cache_dir).run(
        _config(), library_program=library_program, interface=interface
    )
    warm_parallel = InferenceEngine(cache_dir=cache_dir, workers=2).run(
        _config(), library_program=library_program, interface=interface
    )
    assert warm_parallel.oracle_stats.executions == 0
    assert fsa_equal(cold.fsa, warm_parallel.fsa)


def test_engine_emits_cache_flush_events(tmp_path, library_program, interface):
    engine = InferenceEngine(cache_dir=str(tmp_path / "cache"))
    with ambient_sink(CollectingSink(), thread_local=True) as sink:
        engine.run(_config(), library_program=library_program, interface=interface)
    assert len(sink.of_type(RunStarted)) == 1
    assert len(sink.of_type(RunFinished)) == 1
    flushes = sink.of_type(CacheFlushed)
    assert len(flushes) == 1
    assert flushes[0].entries_written > 0
    assert flushes[0].total_entries >= flushes[0].entries_written


def test_in_memory_engine_needs_no_cache_dir(library_program, interface):
    engine = InferenceEngine()
    result = engine.run(
        AtlasConfig(clusters=[("Box",)], seed=7, enumeration_budget=2_000),
        library_program=library_program,
        interface=interface,
    )
    assert result.oracle_stats.executions > 0
    assert engine.last_cache is None


def test_experiment_context_routes_through_engine(tmp_path, monkeypatch):
    from repro.experiments.config import QUICK_CONFIG
    from repro.experiments.context import ExperimentContext

    cache_dir = str(tmp_path / "cache")
    config = QUICK_CONFIG.scaled(
        cache_dir=cache_dir,
        atlas=AtlasConfig(clusters=[("Box",)], seed=7, enumeration_budget=2_000),
    )
    context = ExperimentContext(config)
    first = context.atlas_result
    assert first.oracle_stats.executions > 0
    assert os.path.exists(os.path.join(cache_dir, InferenceEngine.CACHE_FILENAME))

    # a fresh context re-running the same evaluation answers purely from disk
    warm_context = ExperimentContext(config)
    warm = warm_context.atlas_result
    assert warm.oracle_stats.executions == 0
    assert fsa_equal(first.fsa, warm.fsa)


def test_design_choices_shares_the_persistent_cache(tmp_path, monkeypatch):
    """Warm design-choice runs must execute zero witnesses too (not just Atlas)."""
    from repro.experiments import design_choices
    from repro.experiments.config import QUICK_CONFIG
    from repro.experiments.context import ExperimentContext
    from repro.learn import oracle as oracle_module

    config = QUICK_CONFIG.scaled(
        cache_dir=str(tmp_path / "cache"),
        atlas=AtlasConfig(clusters=[("Box",)], seed=7, enumeration_budget=2_000),
        design_choice_samples=300,
        design_choice_clusters=(("Box",),),
    )
    cold = design_choices.run(ExperimentContext(config))

    def forbid_execution(self, test):
        raise AssertionError("witness executed during a warm design-choices run")

    monkeypatch.setattr(oracle_module.WitnessOracle, "execute_witness", forbid_execution)
    warm = design_choices.run(ExperimentContext(config))
    assert warm.sampling.mcts_positives == cold.sampling.mcts_positives
    assert warm.initialization == cold.initialization


def test_environment_overrides_configure_engine(monkeypatch, tmp_path):
    from repro.experiments.config import QUICK_CONFIG, preset_from_environment

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
    monkeypatch.setenv("REPRO_WORKERS", "3")
    config = preset_from_environment(QUICK_CONFIG)
    assert config.cache_dir == str(tmp_path / "env-cache")
    assert config.workers == 3

    monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
    config = preset_from_environment(QUICK_CONFIG)
    assert config.workers == 0
