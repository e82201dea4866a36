"""Shared pytest fixtures for the test suite and the benchmark harness.

``tests/conftest.py`` and ``benchmarks/conftest.py`` import their fixtures
from here instead of each defining their own copies -- one definition of
"the session library program", "a tiny learned spec", or "the benchmark
experiment context" serves both collection roots.  The conftests keep only
the three-line ``sys.path`` bootstrap (which must run before this module is
importable) and re-export what their tests use.

Only test infrastructure may import this module; runtime code must not
(it drags in :mod:`pytest`).
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.client.sources_sinks import build_framework_program
from repro.learn.oracle import WitnessOracle
from repro.library.registry import build_interface, build_library_program, core_program

GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "tests",
    "golden",
)


# ----------------------------------------------------------- session artifacts
@pytest.fixture(scope="session")
def library_program():
    return build_library_program()


@pytest.fixture(scope="session")
def interface(library_program):
    return build_interface(library_program)


@pytest.fixture(scope="session")
def framework_program():
    return build_framework_program()


@pytest.fixture(scope="session")
def core(library_program):
    return core_program(library_program)


@pytest.fixture(scope="session")
def oracle(library_program, interface):
    return WitnessOracle(library_program, interface)


@pytest.fixture(scope="session")
def null_oracle(library_program, interface):
    return WitnessOracle(library_program, interface, initialization="null")


@pytest.fixture(scope="session")
def tiny_atlas_result(library_program, interface):
    """A cheap end-to-end inference result (Box cluster only) for service tests."""
    from repro.engine import InferenceEngine
    from repro.learn import AtlasConfig

    config = AtlasConfig(clusters=[("Box",)], seed=7, enumeration_budget=2_000)
    return InferenceEngine().run(config, library_program=library_program, interface=interface)


# ------------------------------------------------------------- diff pipelines
@pytest.fixture(scope="session")
def ground_truth_analyzer(library_program, interface):
    """The ground-truth-spec :class:`ClientAnalyzer` (the default fuzz pipeline)."""
    from repro.diff.checker import build_pipeline_analyzer

    return build_pipeline_analyzer(
        "ground_truth", library_program=library_program, interface=interface
    )


@pytest.fixture(scope="session")
def handwritten_analyzer(library_program, interface):
    """The deliberately incomplete handwritten-spec pipeline (divergence source)."""
    from repro.diff.checker import build_pipeline_analyzer

    return build_pipeline_analyzer(
        "handwritten", library_program=library_program, interface=interface
    )


@pytest.fixture(scope="session")
def implementation_analyzer(library_program, interface):
    """Handwritten-model Andersen: the analysis over the implementation itself."""
    from repro.diff.checker import build_pipeline_analyzer

    return build_pipeline_analyzer(
        "implementation", library_program=library_program, interface=interface
    )


@pytest.fixture
def fresh_ground_truth_analyzer(library_program, interface):
    """Factory of ground-truth analyzers, each with an empty snapshot pool.

    The session-scoped analyzers keep the engine snapshots of every earlier
    test, so a program one of them already solved comes back
    ``incremental``; a test that asserts a ``cold`` outcome builds its own.
    """
    from repro.diff.checker import build_pipeline_analyzer

    def _build():
        return build_pipeline_analyzer(
            "ground_truth", library_program=library_program, interface=interface
        )

    return _build


# ------------------------------------------------------------------- utilities
@pytest.fixture
def wait_until():
    """Poll-a-condition helper: ``wait_until(cond)`` -> bool."""

    def _wait(condition, timeout=10.0, interval=0.01):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if condition():
                return True
            time.sleep(interval)
        return False

    return _wait


@pytest.fixture
def global_sink():
    """A collecting sink every event emitted in this process reaches.

    Process-global, not thread-local: a worker pool re-emits its workers'
    telemetry on its loop thread, and its store poller runs on another.
    """
    from repro.engine.events import CollectingSink
    from repro.obs.trace import ambient_sink

    with ambient_sink(CollectingSink()) as sink:
        yield sink


def freeze_workers(pool) -> list:
    """SIGSTOP every worker process of a started ``ProcessWorkerPool``.

    Jobs sent to a frozen worker wait until ``SIGCONT`` (or its death), which
    holds requests in flight deterministically.  Returns the worker processes.
    """
    processes = [worker.process for worker in pool._workers.values()]
    for process in processes:
        os.kill(process.pid, signal.SIGSTOP)
    return processes


def thaw_workers(processes) -> None:
    """Resume processes frozen by :func:`freeze_workers`."""
    for process in processes:
        os.kill(process.pid, signal.SIGCONT)


@pytest.fixture
def tiny_store(tmp_path, tiny_atlas_result, library_program):
    """A fresh SpecStore holding one stored copy of the tiny result."""
    from repro.service.store import SpecStore

    store = SpecStore(str(tmp_path / "specs"))
    store.put(tiny_atlas_result, library_program=library_program)
    return store


# --------------------------------------------------------- benchmark harness
def bench_experiment_config():
    """The benchmark preset (``REPRO_PRESET=full`` switches to the paper scale)."""
    from repro.experiments.config import FULL_CONFIG, QUICK_CONFIG, apply_engine_environment

    preset = os.environ.get("REPRO_PRESET", "").strip().lower()
    if preset == "full":
        config = FULL_CONFIG
    else:
        # Benchmark preset: the quick configuration with a slightly smaller suite.
        config = QUICK_CONFIG.scaled(name="bench", num_apps=10)
    # REPRO_CACHE_DIR / REPRO_WORKERS route the whole harness through one
    # persistent oracle cache and/or parallel cluster inference.
    return apply_engine_environment(config)


@pytest.fixture(scope="session")
def context():
    """The benchmark :class:`ExperimentContext` (oracle caches flushed at exit)."""
    from repro.experiments.context import ExperimentContext

    context = ExperimentContext(bench_experiment_config())
    yield context
    # persist any oracle answers accumulated by context-built oracles
    context.flush_oracle_caches()


def emit(title: str, text: str) -> None:
    """Print a reproduced table under a recognizable banner."""
    print()
    print("=" * 72)
    print(title)
    print(text)


__all__ = [
    "GOLDEN_DIR",
    "bench_experiment_config",
    "context",
    "core",
    "emit",
    "framework_program",
    "freeze_workers",
    "ground_truth_analyzer",
    "handwritten_analyzer",
    "implementation_analyzer",
    "interface",
    "library_program",
    "null_oracle",
    "oracle",
    "thaw_workers",
    "tiny_atlas_result",
    "tiny_store",
    "wait_until",
]
