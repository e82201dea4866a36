"""Cluster execution strategies for the Atlas pipeline.

``Atlas.run`` drives its per-cluster inference work through an *executor*.
Two strategies are provided:

* :class:`SerialExecutor` runs clusters in order inside the calling process,
  sharing the parent oracle (and thus its cache) across clusters -- this is
  the classic behavior.
* :class:`ParallelExecutor` fans independent clusters out to worker
  processes.  Each worker receives the parent's oracle-cache snapshot, runs
  one cluster with its deterministic per-cluster seed, and sends back the
  cluster result together with its oracle-stat deltas and newly discovered
  cache entries; the parent merges everything in cluster order, so the final
  FSA (and generated specification program) is bit-identical to a serial run.

Determinism rests on two facts: per-cluster seeds are derived from the run
seed and the cluster index (never from completion order), and the oracle is a
pure function of ``(word, initialization, library)`` -- caching only avoids
re-execution, it never changes an answer.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.engine.events import ClusterFinished, ClusterStarted
from repro.learn.oracle import OracleStats
from repro.obs import trace as _trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline imports us lazily)
    from repro.learn.pipeline import Atlas, ClusterResult

Word = tuple


@dataclass(frozen=True)
class ClusterJob:
    """One unit of executor work: infer specifications for one cluster."""

    index: int
    classes: Tuple[str, ...]
    seed: int


@dataclass
class ClusterOutcome:
    """What an executor hands back for one cluster, in cluster order."""

    job: ClusterJob
    result: "ClusterResult"
    elapsed_seconds: float = 0.0
    #: oracle-stat deltas attributable to this cluster (parallel workers only;
    #: the serial executor mutates the parent stats in place).
    worker_stats: Optional[OracleStats] = None
    #: cache entries discovered by a worker (empty for the serial executor,
    #: whose clusters write straight into the parent cache).
    cache_entries: Dict[Word, bool] = field(default_factory=dict)


class ClusterExecutor:
    """Strategy interface: run every job and return outcomes in job order."""

    name = "abstract"

    def run(self, atlas: "Atlas", jobs: Sequence[ClusterJob]) -> List[ClusterOutcome]:
        raise NotImplementedError


class SerialExecutor(ClusterExecutor):
    """Run clusters one after another on the calling process's oracle."""

    name = "serial"

    def run(self, atlas: "Atlas", jobs: Sequence[ClusterJob]) -> List[ClusterOutcome]:
        outcomes: List[ClusterOutcome] = []
        for job in jobs:
            _trace.emit(ClusterStarted(index=job.index, classes=job.classes))
            queries_before = atlas.oracle.stats.queries
            hits_before = atlas.oracle.stats.cache_hits
            started = time.perf_counter()
            with _trace.span("engine.cluster", classes="+".join(job.classes)):
                result = atlas.run_cluster(job.classes, job.seed)
            elapsed = time.perf_counter() - started
            _trace.emit(
                ClusterFinished(
                    index=job.index,
                    classes=job.classes,
                    elapsed_seconds=elapsed,
                    positives=len(result.positives),
                    fsa_states=result.fsa.num_states,
                    oracle_queries=atlas.oracle.stats.queries - queries_before,
                    cache_hits=atlas.oracle.stats.cache_hits - hits_before,
                )
            )
            outcomes.append(ClusterOutcome(job=job, result=result, elapsed_seconds=elapsed))
        return outcomes


# ---------------------------------------------------------------------- worker
def run_cluster_job(
    config,
    library_program,
    interface,
    classes: Tuple[str, ...],
    seed: int,
    cache_snapshot: Dict[Word, bool],
) -> Tuple["ClusterResult", OracleStats, Dict[Word, bool], float]:
    """Run one cluster in a fresh Atlas seeded with *cache_snapshot*.

    Returns the cluster result, the oracle stats accumulated by this job, the
    cache entries not present in the snapshot, and the elapsed wall time.
    Module-level (and argument-only) so it is picklable for worker processes
    and directly testable in-process.
    """
    from repro.learn.pipeline import Atlas  # deferred: avoids an import cycle

    atlas = Atlas(library_program, interface, config)
    atlas.oracle.seed_cache(cache_snapshot)
    started = time.perf_counter()
    result = atlas.run_cluster(classes, seed)
    elapsed = time.perf_counter() - started
    new_entries = {
        word: answer
        for word, answer in atlas.oracle.cached_results().items()
        if word not in cache_snapshot
    }
    return result, atlas.oracle.stats, new_entries, elapsed


_WORKER_STATE: dict = {}


def _init_worker(config, library_program, interface, cache_snapshot, obs_state=None) -> None:
    """Per-process initializer: ship the heavy, job-invariant state once."""
    _WORKER_STATE["config"] = config
    _WORKER_STATE["library_program"] = library_program
    _WORKER_STATE["interface"] = interface
    _WORKER_STATE["cache_snapshot"] = cache_snapshot
    _trace.adopt(obs_state)


def _worker_run_cluster(classes: Tuple[str, ...], seed: int):
    with _trace.span("engine.cluster", classes="+".join(classes)):
        return run_cluster_job(
            _WORKER_STATE["config"],
            _WORKER_STATE["library_program"],
            _WORKER_STATE["interface"],
            classes,
            seed,
            _WORKER_STATE["cache_snapshot"],
        )


class ParallelExecutor(ClusterExecutor):
    """Fan independent clusters out to a pool of worker processes."""

    name = "parallel"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = max_workers

    def _pool_size(self, num_jobs: int) -> int:
        workers = self.max_workers if self.max_workers else (os.cpu_count() or 1)
        return max(1, min(workers, num_jobs))

    def run(self, atlas: "Atlas", jobs: Sequence[ClusterJob]) -> List[ClusterOutcome]:
        if not jobs:
            return []
        snapshot = atlas.oracle.cached_results()
        outcomes: Dict[int, ClusterOutcome] = {}
        with ProcessPoolExecutor(
            max_workers=self._pool_size(len(jobs)),
            initializer=_init_worker,
            # _trace.capture() ships the parent's trace context and journal
            # path, so worker-side spans join the same trace and journal.
            initargs=(
                atlas.config,
                atlas.library_program,
                atlas.interface,
                snapshot,
                _trace.capture(),
            ),
        ) as pool:
            futures = {}
            for job in jobs:
                _trace.emit(ClusterStarted(index=job.index, classes=job.classes))
                futures[pool.submit(_worker_run_cluster, job.classes, job.seed)] = job
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    job = futures[future]
                    result, worker_stats, new_entries, elapsed = future.result()
                    _trace.emit(
                        ClusterFinished(
                            index=job.index,
                            classes=job.classes,
                            elapsed_seconds=elapsed,
                            positives=len(result.positives),
                            fsa_states=result.fsa.num_states,
                            oracle_queries=worker_stats.queries,
                            cache_hits=worker_stats.cache_hits,
                        )
                    )
                    outcomes[job.index] = ClusterOutcome(
                        job=job,
                        result=result,
                        elapsed_seconds=elapsed,
                        worker_stats=worker_stats,
                        cache_entries=new_entries,
                    )
        # Merge worker results back into the parent in deterministic cluster
        # order: stats accumulate and fresh oracle answers enter the parent
        # cache (persisting them if the backend is disk-backed).
        ordered = [outcomes[job.index] for job in jobs]
        for outcome in ordered:
            if outcome.worker_stats is not None:
                atlas.oracle.stats.merge(outcome.worker_stats)
            if outcome.cache_entries:
                atlas.oracle.seed_cache(outcome.cache_entries)
        return ordered


# ------------------------------------------------------------- generic mapping
# The cluster executors above are specific to Atlas inference.  The service
# layer (batch client analysis) needs the same serial/process-pool split for a
# different unit of work, so the generic strategy lives here too: run a
# picklable function over a list of payloads, sharing one heavy payload across
# workers, and return results in payload order regardless of completion order.

_TASK_STATE: dict = {}


def _init_task_worker(fn, shared, obs_state=None) -> None:
    """Per-process initializer: ship the task function and shared state once."""
    _TASK_STATE["fn"] = fn
    _TASK_STATE["shared"] = shared
    _trace.adopt(obs_state)


def _run_task(index: int, payload):
    return index, _TASK_STATE["fn"](_TASK_STATE["shared"], payload)


class TaskExecutor:
    """Strategy interface: map ``fn(shared, payload)`` over payloads in order.

    ``on_result(index, result)`` fires as results arrive (completion order for
    the parallel strategy); the returned list is always in payload order, so
    downstream merging is deterministic either way.
    """

    name = "abstract"

    def map(self, fn, shared, payloads: Sequence, on_result=None) -> List:
        raise NotImplementedError


class SerialTaskExecutor(TaskExecutor):
    """Run every task in order on the calling process."""

    name = "serial"

    def map(self, fn, shared, payloads: Sequence, on_result=None) -> List:
        results = []
        for index, payload in enumerate(payloads):
            result = fn(shared, payload)
            if on_result is not None:
                on_result(index, result)
            results.append(result)
        return results


class ParallelTaskExecutor(TaskExecutor):
    """Fan tasks out to a pool of worker processes.

    *fn* must be a module-level function and *shared*/payloads/results must be
    picklable; the shared state is shipped once per worker process via the
    pool initializer rather than once per task.
    """

    name = "parallel"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = max_workers

    def _pool_size(self, num_tasks: int) -> int:
        workers = self.max_workers if self.max_workers else (os.cpu_count() or 1)
        return max(1, min(workers, num_tasks))

    def map(self, fn, shared, payloads: Sequence, on_result=None) -> List:
        if not payloads:
            return []
        results: Dict[int, object] = {}
        with ProcessPoolExecutor(
            max_workers=self._pool_size(len(payloads)),
            initializer=_init_task_worker,
            initargs=(fn, shared, _trace.capture()),
        ) as pool:
            pending = {
                pool.submit(_run_task, index, payload)
                for index, payload in enumerate(payloads)
            }
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index, result = future.result()
                    if on_result is not None:
                        on_result(index, result)
                    results[index] = result
        return [results[index] for index in range(len(payloads))]


def make_task_executor(workers: int = 0) -> TaskExecutor:
    """Factory: ``workers <= 1`` selects the serial strategy."""
    if workers and workers > 1:
        return ParallelTaskExecutor(max_workers=workers)
    return SerialTaskExecutor()


def make_executor(workers: int = 0, max_workers: Optional[int] = None) -> ClusterExecutor:
    """Factory: ``workers <= 1`` selects the serial strategy."""
    if max_workers is None:
        max_workers = workers
    if workers and workers > 1:
        return ParallelExecutor(max_workers=max_workers)
    return SerialExecutor()


__all__ = [
    "ClusterExecutor",
    "ClusterJob",
    "ClusterOutcome",
    "ParallelExecutor",
    "ParallelTaskExecutor",
    "SerialExecutor",
    "SerialTaskExecutor",
    "TaskExecutor",
    "make_executor",
    "make_task_executor",
    "run_cluster_job",
]
