"""Differential fuzzing campaigns over the engine's task executors.

A campaign is: plan ``budget`` seeded scenarios round-robin across the
requested families, differentially check each one (shrinking divergent
programs in place), merge the outcomes in plan order, and persist the golden
entries.  The per-scenario work function is module-level and the shared
state (the precompiled :class:`~repro.diff.checker.DifferentialChecker`) is
picklable, so the same campaign fans across
:class:`~repro.engine.executor.ParallelTaskExecutor` worker processes --
and because scenario seeds derive from the plan (never from scheduling) and
:meth:`FuzzReport.canonical` excludes timing, a ``--workers 4`` report is
bit-identical to a serial one.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.diff.checker import DiffOutcome, DifferentialChecker, build_pipeline_analyzer
from repro.diff.corpus import COUNTEREXAMPLE, GoldenEntry, write_corpus
from repro.diff.families import DEFAULT_FAMILIES, generate_scenario, scenario_plan
from repro.diff.shrink import shrink_program
from repro.engine.events import (
    DivergenceShrunk,
    FuzzFinished,
    FuzzStarted,
    ProgramChecked,
)
from repro.engine.executor import make_task_executor
from repro.obs import trace as _trace

REPORT_FORMAT = "repro.diff.fuzz-report/1"


@dataclass(frozen=True)
class FuzzConfig:
    """Everything that determines a campaign's outcomes (and only that)."""

    families: Tuple[str, ...] = DEFAULT_FAMILIES
    budget: int = 100
    seed: int = 2018
    workers: int = 0
    pipeline: str = "ground_truth"  # primary pipeline under test
    cross_check: bool = True  # also run handwritten-model (implementation) Andersen
    engine_check: bool = False  # cross-check each pipeline against reference_flows
    shrink: bool = True
    sample: int = 10  # passing programs frozen into the golden corpus
    guided: bool = False  # coverage-guided mutation mode (repro.diff.guided)

    def corpus_filename(self) -> str:
        """Distinct per (pipeline, families, seed): campaigns with different
        configurations must not overwrite each other's frozen corpus."""
        families = (
            "default" if tuple(self.families) == DEFAULT_FAMILIES else "+".join(self.families)
        )
        mode = "guided-" if self.guided else ""
        return f"fuzz-{mode}{self.pipeline}-{families}-seed{self.seed}.json"


@dataclass
class FuzzReport:
    """The merged result of one campaign."""

    config: FuzzConfig
    outcomes: List[DiffOutcome]
    executor: str
    elapsed_seconds: float = 0.0
    corpus_path: Optional[str] = None
    golden: List[GoldenEntry] = field(default_factory=list)
    # guided-mode extras (None for blind campaigns, keeping their encodings
    # byte-identical to previous releases)
    coverage: Optional[object] = None  # CoverageMap
    corpus_stats: Optional[Dict] = None

    @property
    def programs(self) -> int:
        return len(self.outcomes)

    @property
    def diverged(self) -> List[DiffOutcome]:
        return [outcome for outcome in self.outcomes if outcome.diverged]

    @property
    def shrunk(self) -> List[DiffOutcome]:
        return [outcome for outcome in self.diverged if outcome.shrunk_program is not None]

    @property
    def unshrunk(self) -> List[DiffOutcome]:
        """Divergent outcomes with no minimized counterexample attached."""
        return [outcome for outcome in self.diverged if outcome.shrunk_program is None]

    def families_covered(self) -> Tuple[str, ...]:
        return tuple(sorted({outcome.family for outcome in self.outcomes}))

    def spurious_totals(self) -> Dict[str, int]:
        """Spurious (extra, imprecise) static flows per pipeline.

        Missed flows are *unsoundness* and feed :mod:`repro.repair`; spurious
        flows are *imprecision* -- the over-approximation contract at work --
        and must never be "repaired" away.  Reporting them first-class is what
        lets the repair layer (and a human reading the report) tell the two
        apart.
        """
        totals: Dict[str, int] = {}
        for outcome in self.outcomes:
            for pipeline, count in outcome.spurious.items():
                totals[pipeline] = totals.get(pipeline, 0) + count
        return dict(sorted(totals.items()))

    def spurious_programs(self) -> int:
        """Programs for which at least one pipeline reported a spurious flow."""
        return sum(
            1 for outcome in self.outcomes if any(count for count in outcome.spurious.values())
        )

    def canonical(self) -> Dict:
        """The timing-free encoding serial and parallel campaigns share."""
        payload = {
            "format": REPORT_FORMAT,
            "families": list(self.config.families),
            "budget": self.config.budget,
            "seed": self.config.seed,
            "pipeline": self.config.pipeline,
            "cross_check": self.config.cross_check,
            "shrink": self.config.shrink,
            "outcomes": [outcome.canonical() for outcome in self.outcomes],
        }
        if self.config.engine_check:
            # only stamped when on, keeping older report encodings byte-stable
            payload["engine_check"] = True
        if self.config.guided:
            payload["guided"] = True
            payload["coverage"] = self.coverage.to_dict() if self.coverage is not None else None
            payload["corpus"] = self.corpus_stats
        return payload

    def to_dict(self, include_timing: bool = True) -> Dict:
        payload = self.canonical()
        spurious = self.spurious_totals()
        payload["spurious"] = {
            "by_pipeline": spurious,
            "programs": self.spurious_programs(),
            "flows": sum(spurious.values()),
        }
        payload["summary"] = {
            "programs": self.programs,
            "families_covered": list(self.families_covered()),
            "concrete_flows": sum(len(outcome.concrete) for outcome in self.outcomes),
            "diverged": len(self.diverged),
            "shrunk": len(self.shrunk),
            "unshrunk": len(self.unshrunk),
            "spurious_flows": sum(spurious.values()),
            "golden_entries": len(self.golden),
            "executor": self.executor,
        }
        if self.corpus_path is not None:
            payload["summary"]["corpus_path"] = self.corpus_path
        if self.config.guided and self.coverage is not None:
            payload["summary"]["coverage_keys"] = len(self.coverage)
            payload["summary"]["coverage_digest"] = self.coverage.digest()
        if include_timing:
            payload["summary"]["elapsed_seconds"] = self.elapsed_seconds
        return payload

    @classmethod
    def from_dict(cls, data: Dict) -> "FuzzReport":
        """Rebuild a report from its JSON encoding (``repro fuzz --out``).

        Only campaign-determining fields round-trip (``workers`` picks an
        executor, not an outcome, so it resets to serial); timing, corpus
        path and golden entries are not reconstructed.  This is the repair
        engine's ingestion path for report files.
        """
        declared = data.get("format")
        if declared != REPORT_FORMAT:
            raise ValueError(f"unsupported fuzz-report format {declared!r}")
        config = FuzzConfig(
            families=tuple(data["families"]),
            budget=int(data["budget"]),
            seed=int(data["seed"]),
            pipeline=data["pipeline"],
            cross_check=bool(data["cross_check"]),
            engine_check=bool(data.get("engine_check", False)),
            shrink=bool(data["shrink"]),
            guided=bool(data.get("guided", False)),
        )
        outcomes = [DiffOutcome.from_dict(entry) for entry in data["outcomes"]]
        report = cls(config=config, outcomes=outcomes, executor="serial")
        if config.guided and data.get("coverage") is not None:
            from repro.diff.coverage import CoverageMap

            report.coverage = CoverageMap.from_dict(data["coverage"])
            report.corpus_stats = data.get("corpus")
        return report


# ----------------------------------------------------------------- worker side
def run_check_task(shared, payload) -> DiffOutcome:
    """Check (and, on divergence, shrink) one planned scenario.

    Module-level so :class:`ParallelTaskExecutor` can pickle it; *shared* is
    ``(checker, shrink_enabled)``, shipped once per worker process.
    """
    checker, shrink_enabled = shared
    name, family, seed = payload
    with _trace.span("fuzz.check", program=name, family=family):
        scenario = generate_scenario(name, family, seed)
        outcome = checker.check(scenario)
        if outcome.diverged and shrink_enabled:
            with _trace.span("fuzz.shrink", program=name):
                outcome = _shrink_outcome(checker, scenario.program, outcome)
    return outcome


def _shrink_outcome(
    checker: DifferentialChecker, program, outcome: DiffOutcome
) -> DiffOutcome:
    """Minimize a divergent program, preserving its divergence signatures."""
    target = set(outcome.signatures())

    def still_diverges(candidate) -> bool:
        verdict = checker.check_program(
            candidate, outcome.name, family=outcome.family, seed=outcome.seed
        )
        return target.issubset(set(verdict.signatures()))

    result = shrink_program(program, still_diverges)
    final = checker.check_program(
        result.program, outcome.name, family=outcome.family, seed=outcome.seed
    )
    final.shrunk_program = result.program
    final.shrink_steps = result.steps
    # report the original size; the shrunk size is the shrunk program's own
    final.statements = outcome.statements
    return final


# ----------------------------------------------------------------- parent side
def build_checker(
    config: FuzzConfig,
    library_program=None,
    interface=None,
    store=None,
    spec_id: Optional[str] = None,
) -> DifferentialChecker:
    """Compile the campaign's pipelines once (shared across every scenario)."""
    from repro.library.registry import build_interface, build_library_program

    library = library_program if library_program is not None else build_library_program()
    if interface is None:
        interface = build_interface(library)
    analyzers = {
        config.pipeline: build_pipeline_analyzer(
            config.pipeline,
            library_program=library,
            interface=interface,
            store=store,
            spec_id=spec_id,
        )
    }
    if config.cross_check and config.pipeline != "implementation":
        analyzers["implementation"] = build_pipeline_analyzer(
            "implementation", library_program=library, interface=interface
        )
    return DifferentialChecker(
        analyzers, library_program=library, engine_check=config.engine_check
    )


def run_fuzz(
    config: FuzzConfig,
    checker: Optional[DifferentialChecker] = None,
    store=None,
    spec_id: Optional[str] = None,
    golden_out: Optional[str] = None,
) -> FuzzReport:
    """Run one differential fuzzing campaign end to end."""
    if checker is None:
        checker = build_checker(config, store=store, spec_id=spec_id)
    plan = scenario_plan(config.families, config.budget, config.seed)
    executor = make_task_executor(config.workers)
    _trace.emit(
        FuzzStarted(
            budget=config.budget,
            families=tuple(config.families),
            pipeline=config.pipeline,
            executor=executor.name,
            workers=config.workers,
            seed=config.seed,
        )
    )

    def on_result(index: int, outcome: DiffOutcome) -> None:
        _trace.emit(
            ProgramChecked(
                index=index,
                program=outcome.name,
                family=outcome.family,
                statements=outcome.statements,
                concrete_flows=len(outcome.concrete),
                diverged=outcome.diverged,
            )
        )
        if outcome.shrunk_program is not None:
            _trace.emit(
                DivergenceShrunk(
                    program=outcome.name,
                    signatures=outcome.signatures(),
                    statements_before=outcome.statements,
                    statements_after=outcome.shrunk_program.statement_count(),
                    steps=outcome.shrink_steps,
                )
            )

    started = time.perf_counter()
    with _trace.span(
        "fuzz.campaign",
        pipeline=config.pipeline,
        budget=config.budget,
        executor=executor.name,
    ):
        outcomes = executor.map(
            run_check_task, (checker, config.shrink), plan, on_result=on_result
        )
    elapsed = time.perf_counter() - started

    report = FuzzReport(
        config=config, outcomes=list(outcomes), executor=executor.name, elapsed_seconds=elapsed
    )
    report.golden = golden_entries(report)
    if golden_out is not None:
        import os

        report.corpus_path = write_corpus(
            report.golden, os.path.join(golden_out, config.corpus_filename())
        )
    _trace.emit(
        FuzzFinished(
            programs=report.programs,
            diverged=len(report.diverged),
            shrunk=len(report.shrunk),
            elapsed_seconds=elapsed,
            golden_entries=len(report.golden),
        )
    )
    return report


def golden_entries(
    report: FuzzReport, programs: Optional[Dict[str, "object"]] = None
) -> List[GoldenEntry]:
    """Select what a campaign freezes: every counterexample + a seeded sample.

    All shrunk counterexamples are kept.  Passing programs are sampled with
    a :class:`random.Random` seeded from the campaign seed, so the same
    campaign always freezes the same corpus; sampled entries are frozen in
    plan order.

    *programs* optionally maps outcome names to the exact checked programs
    (the guided campaign's mutants are not regenerable from their (family,
    seed) label); when absent, programs are regenerated from the plan.
    """

    def program_for(outcome: DiffOutcome):
        if programs is not None and outcome.name in programs:
            return programs[outcome.name]
        return generate_scenario(outcome.name, outcome.family, outcome.seed).program

    entries: List[GoldenEntry] = []
    passing: List[DiffOutcome] = []
    for outcome in report.outcomes:
        if outcome.diverged:
            entries.append(GoldenEntry.from_outcome(outcome, program_for(outcome)))
        else:
            passing.append(outcome)
    rng = random.Random(report.config.seed)
    count = min(report.config.sample, len(passing))
    sampled = sorted(rng.sample(range(len(passing)), count)) if count else []
    for index in sampled:
        outcome = passing[index]
        entries.append(GoldenEntry.from_outcome(outcome, program_for(outcome)))
    return entries


__all__ = [
    "REPORT_FORMAT",
    "FuzzConfig",
    "FuzzReport",
    "build_checker",
    "golden_entries",
    "run_check_task",
    "run_fuzz",
]
