"""Fan a corpus of client programs across the engine's task executors.

The scheduler is the throughput half of the service: given a
:class:`~repro.service.analyzer.ClientAnalyzer` and a corpus (typically a
:mod:`repro.benchgen` suite), it analyzes every program through a
:class:`repro.engine.executor.TaskExecutor` -- serial in-process, or a
process pool that receives the precompiled base program once per worker --
and merges the flow reports back in corpus order, so the batch result is
bit-identical however many workers ran it.

Telemetry is trace spans (:mod:`repro.obs.trace`): one ``service.batch``
span around the run, carrying ``programs``, ``executor`` and ``flows``, and
one ``analysis.analyze`` span per program, timed inside the worker that
analyzed it and carrying that program's ``flows``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.benchgen.generator import GeneratedApp
from repro.engine.executor import make_task_executor
from repro.lang.program import Program
from repro.obs import trace as _trace
from repro.service.analyzer import ClientAnalyzer, FlowReport


def analyze_payload(analyzer: ClientAnalyzer, payload: Tuple[str, Program]) -> FlowReport:
    """Task function run by the executor (module-level, so workers can pickle it)."""
    name, program = payload
    return analyzer.analyze_program(program, name)


@dataclass
class BatchResult:
    """All flow reports of one batch, in corpus order."""

    reports: List[FlowReport]
    elapsed_seconds: float
    executor: str
    workers: int

    @property
    def total_flows(self) -> int:
        return sum(report.num_flows for report in self.reports)

    def canonical(self) -> List[Dict]:
        """Timing-free encodings, for batch-vs-serial equivalence checks."""
        return [report.canonical() for report in self.reports]

    def to_dict(self, include_timing: bool = True) -> Dict:
        return {
            "executor": self.executor,
            "workers": self.workers,
            "elapsed_seconds": self.elapsed_seconds,
            "num_programs": len(self.reports),
            "total_flows": self.total_flows,
            "reports": [report.to_dict(include_timing=include_timing) for report in self.reports],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "BatchResult":
        """Rebuild a result from its wire encoding (timing-free fields zero).

        The inverse of :meth:`to_dict` up to omitted timings -- what the
        multi-process serving tier uses to rehydrate a worker's response on
        the parent side (shadow comparison, re-serialization): round-tripping
        through ``from_dict(...).to_dict()`` preserves the canonical portion
        bit for bit.
        """
        return cls(
            reports=[FlowReport.from_dict(entry) for entry in data.get("reports", ())],
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            executor=str(data.get("executor", "serial")),
            workers=int(data.get("workers", 0)),
        )


class BatchAnalysisScheduler:
    """Analyze many client programs under one specification set.

    ``workers <= 1`` runs serially; ``workers > 1`` fans programs out to that
    many worker processes, shipping the analyzer (with its precompiled base
    program) once per process via the pool initializer.
    """

    def __init__(self, analyzer: ClientAnalyzer, workers: int = 0):
        self.analyzer = analyzer
        self.workers = workers

    def analyze(self, named_programs: Sequence[Tuple[str, Program]]) -> BatchResult:
        """Analyze ``(name, program)`` pairs; reports come back in input order."""
        executor = make_task_executor(self.workers)
        payloads = list(named_programs)
        started = time.perf_counter()
        with _trace.span(
            "service.batch", programs=len(payloads), executor=executor.name
        ) as batch_span:
            reports = executor.map(analyze_payload, self.analyzer, payloads)
            batch_span.set("flows", sum(report.num_flows for report in reports))
        return BatchResult(
            reports=reports,
            elapsed_seconds=time.perf_counter() - started,
            executor=executor.name,
            workers=self.workers,
        )

    def analyze_apps(self, apps: Iterable[GeneratedApp]) -> BatchResult:
        return self.analyze([(app.name, app.program) for app in apps])


__all__ = [
    "BatchAnalysisScheduler",
    "BatchResult",
    "analyze_payload",
]
