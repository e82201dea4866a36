"""The coverage-guided mutation campaign (``repro fuzz --guided``).

Where :func:`repro.diff.runner.run_fuzz` draws every program blind from the
family generators, the guided campaign is a search:

1. **seed** -- golden-corpus entries for the campaign's families are checked
   first (they encode everything past campaigns learned, including shrunk
   counterexamples);
2. **grow** -- each checked program is fingerprinted by its semantic
   coverage keys (:mod:`repro.diff.coverage`); programs that add coverage
   enter the live corpus;
3. **mutate** -- further candidates are mutants (:mod:`repro.diff.mutate`)
   of corpus programs, interleaved with fresh family scenarios so the search
   never starves, and screened against the concrete interpreter so a
   crashing mutant costs a retry, not a budget slot.

Scheduling is deterministic: candidates are generated parent-side at fixed
round boundaries from per-slot seeded RNGs, and results merge in slot order
-- so a ``--workers 4`` campaign produces a report and coverage map
bit-identical to a serial one (the same property the blind runner has).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Tuple

from repro.diff.checker import DiffOutcome, DifferentialChecker
from repro.diff.corpus import GoldenEntry, corpus_files, load_corpus, write_corpus
from repro.diff.coverage import CoverageContext, CoverageMap, build_coverage_context
from repro.diff.families import _SEED_STRIDE, _camel, generate_scenario
from repro.diff.mutate import MutationContext, build_mutation_context, mutate_program
from repro.diff.runner import FuzzConfig, FuzzReport, _shrink_outcome, build_checker, golden_entries
from repro.diff.truth import ConcreteExecutionError
from repro.engine.events import (
    CorpusSeeded,
    CoverageGrown,
    DivergenceShrunk,
    FuzzFinished,
    FuzzStarted,
    ProgramChecked,
)
from repro.engine.executor import make_task_executor
from repro.lang.program import Program
from repro.lang.serialize import program_from_dict, program_to_dict
from repro.obs import trace as _trace

#: candidates are generated (and results merged) at these round boundaries,
#: so batch composition never depends on the worker count
_BATCH = 8

#: probability of drawing a fresh family scenario instead of a mutant
_FRESH_RATE = 0.25

#: mutation attempts per slot before falling back to a fresh scenario
_MUTATE_ATTEMPTS = 4


class _CorpusEntry:
    """One live-corpus member: a coverage-novel program and where it came from."""

    __slots__ = ("name", "family", "seed", "program", "origin")

    def __init__(self, name: str, family: str, seed: int, program: Program, origin: str):
        self.name = name
        self.family = family
        self.seed = seed
        self.program = program
        self.origin = origin


def _origin_kind(origin: str) -> str:
    return origin.split(":", 1)[0]


def _load_seeds(seed_corpus: Optional[str], families: Tuple[str, ...]) -> List[GoldenEntry]:
    """Golden entries matching the campaign families, in file/entry order."""
    if not seed_corpus:
        return []
    wanted = set(families)
    seeds: List[GoldenEntry] = []
    for path in corpus_files(seed_corpus):
        for entry in load_corpus(path):
            if entry.family in wanted:
                seeds.append(entry)
    return seeds


# ----------------------------------------------------------------- worker side
def run_guided_check_task(shared, payload) -> Tuple[DiffOutcome, Tuple[str, ...]]:
    """Check one candidate and fingerprint its coverage.

    Module-level and picklable-shared, like
    :func:`repro.diff.runner.run_check_task`; *shared* is ``(checker,
    shrink_enabled, coverage_context)``, *payload* is ``(name, family, seed,
    program_dict)`` -- the exact program, not a regenerable label.
    """
    checker, shrink_enabled, context = shared
    name, family, seed, program_dict = payload
    program = program_from_dict(program_dict)
    collected: List[str] = []

    def observe(points_to) -> None:
        collected.extend(context.keys_for_points_to(points_to))

    with _trace.span("fuzz.guided.check", program=name, family=family):
        keys = set(context.keys_for_program(program))
        outcome = checker.check_program(
            program,
            name,
            family=family,
            seed=seed,
            observers={context.pipeline: observe},
        )
        keys.update(collected)
        if outcome.diverged and shrink_enabled:
            with _trace.span("fuzz.shrink", program=name):
                outcome = _shrink_outcome(checker, program, outcome)
    return outcome, tuple(sorted(keys))


# ----------------------------------------------------------------- parent side
class GuidedCampaign:
    """Deterministic candidate scheduling plus corpus/coverage bookkeeping."""

    def __init__(
        self,
        config: FuzzConfig,
        checker: DifferentialChecker,
        coverage_context: CoverageContext,
        mutation_context: MutationContext,
        seeds: List[GoldenEntry],
    ):
        self.config = config
        self.checker = checker
        self.context = coverage_context
        self.mutation = mutation_context
        self.seeds = seeds
        self.coverage = CoverageMap()
        self.corpus: List[_CorpusEntry] = []
        self.origins: Dict[str, str] = {}  # checked name -> origin label
        self.programs: Dict[str, Program] = {}  # checked name -> exact program
        self.seeds_used = 0

    # ------------------------------------------------------------- candidates
    def next_candidate(self, index: int) -> Tuple[str, str, int, Program]:
        """The candidate for global slot *index* (parent-side, deterministic)."""
        rng = random.Random(self.config.seed * _SEED_STRIDE + index)
        if self.seeds_used < len(self.seeds):
            entry = self.seeds[self.seeds_used]
            self.seeds_used += 1
            name = f"Seed{index:04d}"
            self.origins[name] = f"seed:{entry.name}"
            return name, entry.family, entry.seed, entry.program
        if self.corpus and rng.random() >= _FRESH_RATE:
            candidate = self._mutant(index, rng)
            if candidate is not None:
                return candidate
        return self._fresh(index, rng)

    def _fresh(self, index: int, rng: random.Random) -> Tuple[str, str, int, Program]:
        family = self.config.families[index % len(self.config.families)]
        seed = self.config.seed * _SEED_STRIDE + index
        name = f"{_camel(family)}{index:04d}"
        scenario = generate_scenario(name, family, seed)
        self.origins[name] = f"fresh:{family}"
        return name, family, seed, scenario.program

    def _mutant(self, index: int, rng: random.Random) -> Optional[Tuple[str, str, int, Program]]:
        parent = rng.choice(self.corpus)
        mates = [entry.program for entry in self.corpus if entry is not parent]
        for _attempt in range(_MUTATE_ATTEMPTS):
            result = mutate_program(parent.program, rng, self.mutation, mates=mates)
            if result is None:
                continue
            op_name, mutant = result
            # screen against the interpreter: a crashing mutant is a fuzzer
            # artifact, not a specification gap -- retry instead of spending
            # a budget slot on it
            try:
                self.checker.truth.run(mutant)
            except ConcreteExecutionError:
                continue
            name = f"Mutant{index:04d}"
            self.origins[name] = f"{op_name}:{parent.name}"
            return name, parent.family, self.config.seed * _SEED_STRIDE + index, mutant
        return None

    # ----------------------------------------------------------------- results
    def admit(self, index: int, outcome: DiffOutcome, keys: Tuple[str, ...], program: Program):
        """Merge one slot's result; returns the CoverageGrown event or None."""
        self.programs[outcome.name] = program
        new = self.coverage.observe(keys)
        if new == 0:
            return None
        origin = self.origins.get(outcome.name, "?")
        self.corpus.append(
            _CorpusEntry(outcome.name, outcome.family, outcome.seed, program, origin)
        )
        return CoverageGrown(
            index=index,
            program=outcome.name,
            origin=origin,
            new_keys=new,
            total_keys=len(self.coverage),
            corpus_size=len(self.corpus),
        )

    def stats(self) -> Dict:
        by_origin: Dict[str, int] = {}
        for entry in self.corpus:
            kind = _origin_kind(entry.origin)
            by_origin[kind] = by_origin.get(kind, 0) + 1
        return {
            "programs": len(self.corpus),
            "seeds_loaded": len(self.seeds),
            "by_origin": dict(sorted(by_origin.items())),
            "coverage_keys": len(self.coverage),
            "coverage_digest": self.coverage.digest(),
        }


def run_guided_fuzz(
    config: FuzzConfig,
    checker: Optional[DifferentialChecker] = None,
    store=None,
    spec_id: Optional[str] = None,
    golden_out: Optional[str] = None,
    seed_corpus: Optional[str] = None,
    library_program=None,
    interface=None,
) -> FuzzReport:
    """Run one coverage-guided campaign end to end (the guided ``run_fuzz``)."""
    if not config.guided:
        from dataclasses import replace as _replace

        config = _replace(config, guided=True)
    if checker is None:
        checker = build_checker(
            config,
            library_program=library_program,
            interface=interface,
            store=store,
            spec_id=spec_id,
        )
    coverage_context = build_coverage_context(
        config.pipeline,
        library_program=library_program,
        interface=interface,
        store=store,
        spec_id=spec_id,
    )
    mutation_context = build_mutation_context(
        library_program=library_program, interface=interface
    )
    seeds = _load_seeds(seed_corpus, tuple(config.families))[: config.budget]
    campaign = GuidedCampaign(config, checker, coverage_context, mutation_context, seeds)

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
    _trace.emit(
        CorpusSeeded(
            source=seed_corpus or "(none)",
            entries=len(seeds),
            families=tuple(config.families),
        )
    )

    outcomes: List[DiffOutcome] = []
    started = time.perf_counter()
    shared = (checker, config.shrink, coverage_context)
    with _trace.span(
        "fuzz.guided.campaign",
        pipeline=config.pipeline,
        budget=config.budget,
        executor=executor.name,
    ):
        index = 0
        while index < config.budget:
            batch = min(_BATCH, config.budget - index)
            # candidate generation happens entirely parent-side, at round
            # boundaries, against the corpus as of this round -- the batch
            # composition is therefore independent of the worker count
            slots = [campaign.next_candidate(index + offset) for offset in range(batch)]
            payloads = [
                (name, family, seed, program_to_dict(program))
                for name, family, seed, program in slots
            ]
            results = executor.map(run_guided_check_task, shared, payloads)
            for offset, (outcome, keys) in enumerate(results):
                slot_index = index + offset
                program = slots[offset][3]
                if outcome.diverged and outcome.shrunk_program is None:
                    # mutants and seeds are not regenerable from (family,
                    # seed); carry the exact program so repair can ingest it
                    outcome.shrunk_program = program
                outcomes.append(outcome)
                _trace.emit(
                    ProgramChecked(
                        index=slot_index,
                        program=outcome.name,
                        family=outcome.family,
                        statements=outcome.statements,
                        concrete_flows=len(outcome.concrete),
                        diverged=outcome.diverged,
                    )
                )
                if outcome.diverged and config.shrink:
                    _trace.emit(
                        DivergenceShrunk(
                            program=outcome.name,
                            signatures=outcome.signatures(),
                            statements_before=outcome.statements,
                            statements_after=outcome.shrunk_program.statement_count(),
                            steps=outcome.shrink_steps,
                        )
                    )
                grown = campaign.admit(slot_index, outcome, keys, program)
                if grown is not None:
                    _trace.emit(grown)
            index += batch
    elapsed = time.perf_counter() - started

    report = FuzzReport(
        config=config,
        outcomes=outcomes,
        executor=executor.name,
        elapsed_seconds=elapsed,
        coverage=campaign.coverage,
        corpus_stats=campaign.stats(),
    )
    report.golden = golden_entries(report, programs=campaign.programs)
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


__all__ = [
    "GuidedCampaign",
    "run_guided_check_task",
    "run_guided_fuzz",
]
