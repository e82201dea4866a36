"""The repair engine: fuzz divergences -> repaired, republished specifications.

``RepairEngine.repair`` is the closing arc of the fuzz -> learn -> serve
loop:

1. **Ingest** a :class:`~repro.diff.runner.FuzzReport` (the in-memory object
   or the JSON document ``repro fuzz --out`` wrote) and keep the divergences
   of its primary pipeline; spurious flows are carried along as telemetry but
   never repaired -- they are imprecision, not unsoundness.
2. **Plan**: replay each counterexample through the concrete interpreter's
   boundary tracer (:func:`repro.diff.truth.trace_library_calls`) and
   reconstruct the targeted oracle words the current automaton wrongly
   rejects (:mod:`repro.repair.words`); group words by the library classes
   they implicate.
3. **Re-learn** only the implicated clusters: each cluster job runs
   :meth:`repro.learn.pipeline.Atlas.run_cluster` in ``"targeted"`` mode with
   the words injected, warm-started from the persistent oracle cache, fanned
   across the engine's Serial/Parallel task executors (parallel repair is
   bit-identical to serial: per-cluster seeds derive from the plan, results
   merge in cluster order, and the oracle is a pure function).
4. **Publish**: the repaired automaton (base automaton unioned with the
   re-learned cluster automata) becomes a **new version** in the
   :class:`~repro.service.store.SpecStore`; the record's provenance names the
   counterexamples and words that drove the repair, and a running
   ``repro serve`` daemon hot-reloads it with zero downtime.
5. **Verify** (optional): re-fuzz the repaired specification over the
   originating families and seeds and assert the divergences are gone.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.diff.checker import MISSED_FLOW, DiffOutcome
from repro.diff.families import generate_scenario
from repro.diff.runner import FuzzConfig, FuzzReport, run_fuzz
from repro.diff.truth import ConcreteExecutionError, trace_library_calls
from repro.engine.cache import encode_word, open_oracle_cache, program_fingerprint
from repro.engine.events import (
    CacheFlushed,
    MethodRelearned,
    RepairStarted,
    RepairVerified,
    SpecRepaired,
)
from repro.engine.executor import make_task_executor
from repro.engine.persist import fsa_to_dict
from repro.learn.oracle import OracleStats
from repro.learn.pipeline import Atlas, AtlasConfig, AtlasResult, ClusterResult, word_sort_key
from repro.library.registry import build_library_program, build_spec_interface
from repro.obs import trace as _trace
from repro.repair.words import MAX_CALLS, MAX_WORDS, extract_words, word_classes
from repro.service.store import SpecRecord, SpecStore
from repro.specs.codegen import generate_code_fragments
from repro.specs.fsa import FSA, fsa_union
from repro.specs.variables import SpecVariable

Word = Tuple[SpecVariable, ...]

#: pipelines whose specification set can be repaired (``implementation`` runs
#: the library itself -- there is no specification to fix)
REPAIRABLE_PIPELINES = ("ground_truth", "handwritten", "store")

CACHE_FILENAME = "oracle-cache.jsonl"  # same file the InferenceEngine shares


@dataclass(frozen=True)
class RepairConfig:
    """Knobs of one repair run (everything that determines its outcome)."""

    seed: int = 2018
    workers: int = 0
    max_calls: int = MAX_CALLS  # word-extraction depth (library calls spanned)
    max_words: int = MAX_WORDS  # candidate words per divergence


@dataclass
class DivergenceRepair:
    """One ingested divergence and what the planner made of it."""

    program: str
    family: str
    signature: str
    words: Tuple[Word, ...] = ()
    reason: str = ""  # why no candidate words exist ("" when repairable)
    repaired: bool = False  # the final automaton accepts >= 1 of its words

    def to_dict(self) -> Dict:
        return {
            "program": self.program,
            "family": self.family,
            "signature": self.signature,
            "words": [list(encode_word(word)) for word in self.words],
            "reason": self.reason,
            "repaired": self.repaired,
        }


@dataclass
class RepairPlan:
    """The planner's output: per-divergence words, grouped into clusters."""

    pipeline: str
    divergences: List[DivergenceRepair]
    clusters: List[Tuple[Tuple[str, ...], Tuple[Word, ...]]]  # (classes, words)
    spurious: Dict[str, int] = field(default_factory=dict)

    @property
    def words(self) -> Tuple[Word, ...]:
        seen: Set[Word] = set()
        for _classes, words in self.clusters:
            seen.update(words)
        return tuple(sorted(seen, key=word_sort_key))

    @property
    def repairable(self) -> List[DivergenceRepair]:
        return [divergence for divergence in self.divergences if divergence.words]

    @property
    def unrepairable(self) -> List[DivergenceRepair]:
        return [divergence for divergence in self.divergences if not divergence.words]


@dataclass
class MethodRepair:
    """One re-learned cluster: the implicated classes and their new automaton."""

    classes: Tuple[str, ...]
    words: Tuple[Word, ...]  # injected candidates
    result: ClusterResult  # positives = the oracle-confirmed subset
    elapsed_seconds: float = 0.0


@dataclass
class RepairOutcome:
    """Everything one ``RepairEngine.repair`` call did."""

    plan: RepairPlan
    base: str  # spec id, or the name of a non-store pipeline
    repairs: List[MethodRepair]
    fsa: FSA  # the repaired automaton (== the base automaton on a no-op)
    record: Optional[SpecRecord]  # the published store version (None on no-op)
    oracle_stats: OracleStats
    executor: str
    elapsed_seconds: float = 0.0
    verification: Optional[FuzzReport] = None

    @property
    def no_op(self) -> bool:
        """True when nothing was re-learned and no version was published."""
        return self.record is None and not self.repairs

    @property
    def verified(self) -> bool:
        return self.verification is not None and not self.verification.diverged

    def canonical(self) -> Dict:
        """The timing-free encoding serial and parallel repairs share."""
        return {
            "pipeline": self.plan.pipeline,
            "base": self.base,
            "divergences": [divergence.to_dict() for divergence in self.plan.divergences],
            "clusters": [
                {
                    "classes": list(repair.classes),
                    "words": [list(encode_word(word)) for word in repair.words],
                    "positives": sorted(
                        list(encode_word(word)) for word in repair.result.positives
                    ),
                    "fsa": fsa_to_dict(repair.result.fsa),
                }
                for repair in self.repairs
            ],
            "fsa": fsa_to_dict(self.fsa),
            "spec_id": self.record.spec_id if self.record is not None else None,
        }

    def to_dict(self, include_timing: bool = True) -> Dict:
        payload = self.canonical()
        payload["spurious"] = dict(self.plan.spurious)
        payload["summary"] = {
            "no_op": self.no_op,
            "divergences": len(self.plan.divergences),
            "repairable": len(self.plan.repairable),
            "unrepairable": len(self.plan.unrepairable),
            "repaired": sum(1 for d in self.plan.divergences if d.repaired),
            "clusters_relearned": len(self.repairs),
            "oracle_executions": self.oracle_stats.executions,
            "oracle_cache_hits": self.oracle_stats.cache_hits,
            "executor": self.executor,
            "version": self.record.version if self.record is not None else None,
        }
        if self.verification is not None:
            payload["summary"]["verification_divergences"] = len(self.verification.diverged)
            payload["summary"]["verified"] = self.verified
        if include_timing:
            payload["summary"]["elapsed_seconds"] = self.elapsed_seconds
        return payload


# ----------------------------------------------------------------- worker side
def run_relearn_task(shared, payload):
    """Re-learn one implicated cluster (picklable task-executor work unit).

    *shared* is ``(config, library_program, interface, cache_snapshot)``
    shipped once per worker process; *payload* is
    ``(index, classes, words, seed)``.  Returns the cluster result, the
    oracle-stat deltas, the cache entries discovered beyond the snapshot, and
    the elapsed wall time -- the same contract as cluster-inference workers,
    so parent-side merging is identical.
    """
    config, library_program, interface, snapshot = shared
    _index, classes, words, seed = payload
    atlas = Atlas(library_program, interface, config)
    atlas.oracle.seed_cache(snapshot)
    started = time.perf_counter()
    with _trace.span("repair.relearn", classes="+".join(classes), words=len(words)):
        result = atlas.run_cluster(classes, seed, extra_positives=words)
    elapsed = time.perf_counter() - started
    new_entries = {
        word: answer
        for word, answer in atlas.oracle.cached_results().items()
        if word not in snapshot
    }
    return result, atlas.oracle.stats, new_entries, elapsed


# ----------------------------------------------------------------- parent side
class RepairEngine:
    """Turns fuzz divergences into a repaired, republished specification."""

    def __init__(
        self,
        store: Union[SpecStore, str],
        cache_dir: Optional[str] = None,
        config: Optional[RepairConfig] = None,
        library_program=None,
        interface=None,
    ):
        self.store = store if isinstance(store, SpecStore) else SpecStore(store)
        self.cache_dir = cache_dir
        self.config = config if config is not None else RepairConfig()
        self.library_program = (
            library_program if library_program is not None else build_library_program()
        )
        self.interface = (
            interface if interface is not None else build_spec_interface(self.library_program)
        )

    # ------------------------------------------------------------------- bases
    def resolve_base(self, pipeline: str, spec_id: Optional[str] = None):
        """The specification being repaired: ``(description, AtlasResult)``.

        For the ``store`` pipeline this loads the pinned (or latest) stored
        result; for the named specification sets it wraps their automata in a
        synthetic result whose (stable) config keys the repaired versions in
        the store.
        """
        if pipeline == "store":
            if spec_id is None:
                record = self.store.latest(
                    fingerprint=program_fingerprint(self.library_program)
                )
                if record is None:
                    from repro.service.store import SpecNotFoundError

                    raise SpecNotFoundError(
                        f"no stored specification to repair in {self.store.root}"
                    )
                spec_id = record.spec_id
            result = self.store.get(spec_id, interface=self.interface)
            return spec_id, result
        if pipeline == "ground_truth":
            from repro.library.ground_truth import ground_truth_fsa

            fsa = ground_truth_fsa()
        elif pipeline == "handwritten":
            from repro.library.handwritten import handwritten_fsa

            fsa = handwritten_fsa()
        else:
            raise ValueError(
                f"pipeline {pipeline!r} has no repairable specification set "
                f"(repairable: {REPAIRABLE_PIPELINES})"
            )
        synthetic = AtlasResult(
            config=AtlasConfig(strategy="targeted", clusters=()),
            clusters=[],
            fsa=fsa,
            spec_program=generate_code_fragments(fsa, self.interface),
            oracle_stats=OracleStats(),
            positives=set(),
        )
        return pipeline, synthetic

    # -------------------------------------------------------------------- plan
    def plan(self, report: FuzzReport, base_fsa: FSA) -> RepairPlan:
        """Extract targeted words from every primary-pipeline divergence."""
        pipeline = report.config.pipeline
        divergences: List[DivergenceRepair] = []
        cluster_words: Dict[Tuple[str, ...], Set[Word]] = {}

        for outcome in report.outcomes:
            primary = [d for d in outcome.divergences if d.pipeline == pipeline]
            if not primary:
                continue
            trace, trace_error = None, ""
            program = outcome.shrunk_program
            if program is None:
                program = generate_scenario(outcome.name, outcome.family, outcome.seed).program
            try:
                trace = trace_library_calls(
                    program, self.interface, library_program=self.library_program
                )
            except ConcreteExecutionError as error:
                trace_error = f"counterexample crashed under tracing ({error})"

            for divergence in primary:
                entry = DivergenceRepair(
                    program=outcome.name,
                    family=outcome.family,
                    signature=divergence.signature(),
                )
                if divergence.kind != MISSED_FLOW or divergence.flow is None:
                    entry.reason = (
                        f"{divergence.kind} divergences carry no witnessed flow to repair from"
                    )
                elif trace is None:
                    entry.reason = trace_error
                else:
                    flow = divergence.flow
                    words = extract_words(
                        trace,
                        flow.source_class,
                        flow.source_method,
                        self.interface,
                        max_calls=self.config.max_calls,
                        max_words=self.config.max_words,
                    )
                    rejected = tuple(word for word in words if not base_fsa.accepts(word))
                    if rejected:
                        entry.words = rejected
                        for word in rejected:
                            cluster_words.setdefault(word_classes(word), set()).add(word)
                    elif words:
                        entry.reason = (
                            "the automaton already accepts the witnessed words: "
                            "an analysis imprecision, not a specification gap"
                        )
                    else:
                        entry.reason = "no library-boundary word connects source to sink"
                divergences.append(entry)

        clusters = [
            (classes, tuple(sorted(words, key=word_sort_key)))
            for classes, words in sorted(cluster_words.items())
        ]
        return RepairPlan(
            pipeline=pipeline,
            divergences=divergences,
            clusters=clusters,
            spurious=report.spurious_totals(),
        )

    # ------------------------------------------------------------------ repair
    def repair(
        self,
        report: Union[FuzzReport, Dict],
        spec_id: Optional[str] = None,
        verify: bool = False,
        publish: bool = True,
        state: Optional[str] = None,
    ) -> RepairOutcome:
        """Run the full repair pass over one fuzz report.

        *state* is the lifecycle state the published version is born in;
        the control plane passes ``"candidate"`` so a repair must survive
        its canary before ``latest`` (and the serving daemon) see it.
        """
        if isinstance(report, dict):
            report = FuzzReport.from_dict(report)
        with _trace.span("repair.run", pipeline=report.config.pipeline) as root:
            outcome = self._repair(report, spec_id=spec_id, publish=publish, state=state)
            root.set("clusters", len(outcome.repairs))
            root.set("published", outcome.record is not None)
            if verify and outcome.record is not None:
                with _trace.span("repair.verify", spec_id=outcome.record.spec_id):
                    outcome.verification = self.verify(outcome.record, report)
        return outcome

    def _repair(
        self,
        report: FuzzReport,
        spec_id: Optional[str] = None,
        publish: bool = True,
        state: Optional[str] = None,
    ) -> RepairOutcome:
        base_description, base = self.resolve_base(report.config.pipeline, spec_id)
        started = time.perf_counter()
        plan = self.plan(report, base.fsa)
        executor = make_task_executor(self.config.workers)
        _trace.emit(
            RepairStarted(
                pipeline=plan.pipeline,
                divergences=len(plan.divergences),
                words=len(plan.words),
                clusters=len(plan.clusters),
                executor=executor.name,
                workers=self.config.workers,
            )
        )

        stats = OracleStats()
        repairs: List[MethodRepair] = []
        record: Optional[SpecRecord] = None
        fsa = base.fsa

        if plan.clusters:
            cache = None
            if self.cache_dir is not None:
                cache = open_oracle_cache(
                    os.path.join(self.cache_dir, CACHE_FILENAME),
                    self.library_program,
                    initialization=base.config.initialization,
                )
            snapshot = dict(cache.items()) if cache is not None else {}
            relearn_config = dataclasses.replace(base.config, strategy="targeted")
            payloads = [
                (index, classes, words, self.config.seed + index)
                for index, (classes, words) in enumerate(plan.clusters)
            ]

            def on_result(index: int, outcome) -> None:
                result, worker_stats, _entries, elapsed = outcome
                _trace.emit(
                    MethodRelearned(
                        index=index,
                        classes=payloads[index][1],
                        words=len(payloads[index][2]),
                        positives=len(result.positives),
                        fsa_states=result.fsa.num_states,
                        oracle_queries=worker_stats.queries,
                        elapsed_seconds=elapsed,
                    )
                )

            outcomes = executor.map(
                run_relearn_task,
                (relearn_config, self.library_program, self.interface, snapshot),
                payloads,
                on_result=on_result,
            )
            # merge in deterministic cluster order, exactly like cluster inference
            discovered: Dict[Word, bool] = {}
            for payload, (result, worker_stats, new_entries, elapsed) in zip(payloads, outcomes):
                stats.merge(worker_stats)
                discovered.update(new_entries)
                repairs.append(
                    MethodRepair(
                        classes=payload[1],
                        words=payload[2],
                        result=result,
                        elapsed_seconds=elapsed,
                    )
                )
            if cache is not None:
                for word, answer in discovered.items():
                    cache.put(word, answer)
                written = cache.flush()
                _trace.emit(
                    CacheFlushed(path=cache.path, entries_written=written, total_entries=len(cache))
                )

        confirmed = [repair for repair in repairs if repair.result.positives]
        if confirmed:
            fsa = fsa_union([base.fsa] + [repair.result.fsa for repair in repairs])
            for divergence in plan.divergences:
                divergence.repaired = any(fsa.accepts(word) for word in divergence.words)
            if publish:
                repaired_result = AtlasResult(
                    config=base.config,
                    clusters=list(base.clusters) + [repair.result for repair in repairs],
                    fsa=fsa,
                    spec_program=generate_code_fragments(fsa, self.interface),
                    oracle_stats=stats,
                    positives=set(base.positives)
                    | {word for repair in repairs for word in repair.result.positives},
                    elapsed_seconds=time.perf_counter() - started,
                )
                with _trace.span("repair.publish", base=base_description):
                    record = self.store.put(
                        repaired_result,
                        library_program=self.library_program,
                        provenance=self._provenance(base_description, report, plan),
                        state=state,
                    )
                _trace.emit(
                    SpecRepaired(
                        spec_id=record.spec_id,
                        version=record.version,
                        base=base_description,
                        fsa_states=record.fsa_states,
                        fsa_transitions=record.fsa_transitions,
                        counterexamples=len(plan.repairable),
                    )
                )

        return RepairOutcome(
            plan=plan,
            base=base_description,
            repairs=repairs,
            fsa=fsa,
            record=record,
            oracle_stats=stats,
            executor=executor.name,
            elapsed_seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------ verify
    def verify(self, record: SpecRecord, report: FuzzReport) -> FuzzReport:
        """Re-fuzz the repaired spec over the originating campaign's scenarios.

        Same families, budget, and seed as the ingested report -- so the
        exact programs that diverged are re-checked -- but against the
        published ``store`` version, without the cross-check pipeline (the
        handwritten-model Andersen is not what was repaired), and without
        shrinking or golden-corpus writes (anything still divergent is
        evidence enough).
        """
        config = FuzzConfig(
            families=report.config.families,
            budget=report.config.budget,
            seed=report.config.seed,
            workers=self.config.workers,
            pipeline="store",
            cross_check=False,
            shrink=False,
            sample=0,
        )
        verification = run_fuzz(
            config,
            store=self.store,
            spec_id=record.spec_id,
            golden_out=None,
        )
        _trace.emit(
            RepairVerified(
                spec_id=record.spec_id,
                programs=verification.programs,
                divergences=len(verification.diverged),
                clean=not verification.diverged,
            )
        )
        return verification

    # -------------------------------------------------------------- provenance
    @staticmethod
    def _provenance(base_description: str, report: FuzzReport, plan: RepairPlan) -> Dict:
        """The store-record metadata explaining where this version came from.

        When the base is itself a stored version (the ``store`` pipeline),
        ``parent`` links the new version into the lineage chain
        :meth:`repro.service.store.SpecStore.lineage` walks; repairs of the
        named specification sets are lineage roots.
        """
        return {
            "kind": "repro.repair/1",
            "base": base_description,
            "parent": base_description if plan.pipeline == "store" else None,
            "pipeline": plan.pipeline,
            "campaign": {
                "families": list(report.config.families),
                "budget": report.config.budget,
                "seed": report.config.seed,
            },
            "counterexamples": [
                {
                    "program": divergence.program,
                    "family": divergence.family,
                    "signature": divergence.signature,
                    "words": [list(encode_word(word)) for word in divergence.words],
                }
                for divergence in plan.repairable
            ],
            "unrepairable": [
                {"program": d.program, "signature": d.signature, "reason": d.reason}
                for d in plan.unrepairable
            ],
            "clusters": [list(classes) for classes, _words in plan.clusters],
        }


__all__ = [
    "REPAIRABLE_PIPELINES",
    "DivergenceRepair",
    "MethodRepair",
    "RepairConfig",
    "RepairEngine",
    "RepairOutcome",
    "RepairPlan",
    "run_relearn_task",
]
