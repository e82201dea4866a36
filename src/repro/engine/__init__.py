"""The Atlas execution engine: parallel, persistently cached inference.

The paper's headline cost is oracle work -- synthesizing and executing
witness unit tests.  This subsystem makes that cost pay off across runs and
across cores:

* :mod:`repro.engine.cache` -- a content-addressed oracle result store keyed
  by ``(library fingerprint, initialization, word)`` with an in-memory layer
  over an append-only JSON-lines file.
* :mod:`repro.engine.executor` -- serial and process-pool cluster execution
  with deterministic seeds and cluster-order merging (parallel runs produce
  bit-identical automata).
* :mod:`repro.engine.events` -- structured progress/telemetry events and
  the sinks :func:`repro.obs.trace.emit` delivers them to.
* :mod:`repro.engine.persist` -- JSON serialization of learned automata and
  whole inference runs for warm-starting and inspection.

:class:`InferenceEngine` ties the pieces together: it opens the persistent
cache for the library being learned, picks an executor, runs the pipeline,
and flushes new oracle answers back to disk.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.cache import (
    CompactionStats,
    InMemoryCache,
    PersistentCache,
    compact_cache_file,
    open_oracle_cache,
    program_fingerprint,
)
from repro.engine.events import (
    CacheCompacted,
    CacheFlushed,
    ClusterFinished,
    ClusterStarted,
    CollectingSink,
    DivergenceShrunk,
    EngineEvent,
    EventSink,
    FuzzFinished,
    FuzzStarted,
    MethodRelearned,
    ProgramChecked,
    RepairStarted,
    RepairVerified,
    RunFinished,
    RunStarted,
    SpecCompiled,
    SpecReloaded,
    SpecRepaired,
    StreamSink,
)
from repro.engine.executor import (
    ClusterExecutor,
    ClusterJob,
    ClusterOutcome,
    ParallelExecutor,
    ParallelTaskExecutor,
    SerialExecutor,
    SerialTaskExecutor,
    TaskExecutor,
    make_executor,
    make_task_executor,
)
from repro.engine.persist import (
    fsa_equal,
    fsa_from_dict,
    fsa_to_dict,
    load_atlas_result,
    load_fsa,
    save_atlas_result,
    save_fsa,
)
from repro.obs import trace as _trace

import os


class InferenceEngine:
    """Run Atlas inference with persistent caching and optional parallelism.

    ``cache_dir`` names a directory holding the shared oracle cache file
    (``oracle-cache.jsonl``); omit it for a purely in-memory run.  ``workers``
    selects the executor: ``<= 1`` runs serially, ``> 1`` fans clusters out
    to that many worker processes.

    Example -- a cached, parallel run with live progress::

        >>> import sys
        >>> from repro.engine import InferenceEngine, StreamSink
        >>> from repro.learn import AtlasConfig
        >>> from repro.obs import ambient_sink
        >>> engine = InferenceEngine(cache_dir=".repro-cache", workers=4)
        >>> with ambient_sink(StreamSink(sys.stderr)):
        ...     result = engine.run(AtlasConfig())

    A second ``engine.run`` with an unchanged library and config answers
    every oracle query from the cache:
    ``result.oracle_stats.executions == 0``.
    """

    CACHE_FILENAME = "oracle-cache.jsonl"

    def __init__(self, cache_dir: Optional[str] = None, workers: int = 0):
        self.cache_dir = cache_dir
        self.workers = workers
        self.last_cache: Optional[PersistentCache] = None

    # ------------------------------------------------------------------ helpers
    def cache_path(self) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, self.CACHE_FILENAME)

    def open_cache(self, library_program, initialization: str) -> Optional[PersistentCache]:
        path = self.cache_path()
        if path is None:
            return None
        return open_oracle_cache(path, library_program, initialization=initialization)

    # ------------------------------------------------------------------ running
    def run(self, config=None, library_program=None, interface=None, cache=None):
        """Run the full Atlas pipeline under this engine's cache and executor.

        *cache* lets a caller share one already-open :class:`PersistentCache`
        instance across several runs/oracles on the same file (two instances
        on one file cannot see each other's unflushed in-memory entries);
        when omitted, the engine opens its own from ``cache_dir``.
        """
        from repro.learn.pipeline import Atlas, AtlasConfig

        config = config if config is not None else AtlasConfig()
        if cache is None and self.cache_dir is not None:
            if library_program is None:
                from repro.library.registry import build_library_program

                library_program = build_library_program()
            cache = self.open_cache(library_program, config.initialization)
        atlas = Atlas(
            library_program,
            interface,
            config,
            cache=cache if cache is not None else True,
        )
        executor = make_executor(self.workers)
        try:
            result = atlas.run(executor=executor)
        finally:
            if cache is not None:
                written = cache.flush()
                _trace.emit(
                    CacheFlushed(
                        path=cache.path,
                        entries_written=written,
                        total_entries=len(cache),
                    )
                )
                self.last_cache = cache
        return result


__all__ = [
    "CacheCompacted",
    "CacheFlushed",
    "ClusterExecutor",
    "ClusterFinished",
    "ClusterJob",
    "ClusterOutcome",
    "ClusterStarted",
    "CollectingSink",
    "CompactionStats",
    "DivergenceShrunk",
    "EngineEvent",
    "EventSink",
    "FuzzFinished",
    "FuzzStarted",
    "InMemoryCache",
    "InferenceEngine",
    "MethodRelearned",
    "ParallelExecutor",
    "ProgramChecked",
    "ParallelTaskExecutor",
    "PersistentCache",
    "RepairStarted",
    "RepairVerified",
    "RunFinished",
    "RunStarted",
    "SerialExecutor",
    "SerialTaskExecutor",
    "SpecCompiled",
    "SpecReloaded",
    "SpecRepaired",
    "StreamSink",
    "TaskExecutor",
    "compact_cache_file",
    "fsa_equal",
    "fsa_from_dict",
    "fsa_to_dict",
    "load_atlas_result",
    "load_fsa",
    "make_executor",
    "make_task_executor",
    "open_oracle_cache",
    "program_fingerprint",
    "save_atlas_result",
    "save_fsa",
]
