"""The end-to-end Atlas pipeline.

``Atlas.run()`` performs phase one (sampling + oracle filtering) and phase
two (oracle-guided RPNI) for each specification *cluster* -- a small group of
classes whose methods plausibly appear together in one path specification --
then unions the learned automata and translates the result to code-fragment
specifications with the Appendix-A generator.

Clustering is the scaled-down counterpart of the paper's 12-million-sample
budget over the whole standard library: within a cluster the alphabet is
small enough that a few thousand MCTS samples give good coverage on a laptop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lang.program import Program
from repro.learn.enumerate import CandidateEnumerator, EnumerationStats
from repro.learn.mcts import MCTSSampler
from repro.learn.oracle import OracleStats, WitnessOracle
from repro.learn.rpni import RPNIStats, learn_fsa
from repro.learn.sampler import RandomSampler, SamplingStats, sample_positive_examples
from repro.library.registry import SPEC_CLASS_CLUSTERS, build_interface, build_library_program
from repro.specs.codegen import generate_code_fragments
from repro.specs.fsa import FSA, fsa_union
from repro.specs.variables import LibraryInterface, SpecVariable

Word = Tuple[SpecVariable, ...]


def word_sort_key(word: Word) -> Tuple:
    """Deterministic word ordering: shortest first, then lexicographic.

    Shared by the repair planner: injected-word ordering here and cluster
    ordering there must stay identical for parallel repair to remain
    bit-identical to serial.
    """
    return (len(word), tuple(str(variable) for variable in word))


@dataclass
class AtlasConfig:
    """Tunable knobs of the inference pipeline.

    ``strategy`` selects how phase-one candidates are produced:

    * ``"enumerate"`` (default) -- systematic, budgeted enumeration
      (:mod:`repro.learn.enumerate`), the deterministic stand-in for the
      paper's 12-million-sample budget; optionally topped up with sampling
      when ``samples_per_cluster`` is nonzero.
    * ``"mcts"`` / ``"random"`` -- pure sampling as described in Section 5.2
      (used by the §6.3 design-choice experiment).
    * ``"targeted"`` -- no phase-one search of its own: positives come
      exclusively from words injected into :meth:`Atlas.run_cluster` (the
      counterexample-guided repair mode of :mod:`repro.repair`, where the
      fuzzer has already pointed at the gap).
    """

    strategy: str = "enumerate"
    sampler: str = "mcts"  # sampler used when strategy is "mcts"/"random" or for top-up
    initialization: str = "instantiation"  # "instantiation" or "null"
    samples_per_cluster: int = 0
    enumeration_budget: int = 40_000
    exhaustive_calls: int = 2
    max_calls: int = 4
    rpni_max_check_length: int = 8
    rpni_max_checked_words: int = 256
    seed: int = 2018
    clusters: Sequence[Sequence[str]] = SPEC_CLASS_CLUSTERS


@dataclass
class ClusterResult:
    """Per-cluster inference outcome."""

    classes: Tuple[str, ...]
    positives: Set[Word]
    fsa: FSA
    sampling_stats: SamplingStats
    rpni_stats: RPNIStats
    enumeration_stats: Optional[EnumerationStats] = None


@dataclass
class AtlasResult:
    """The outcome of a full inference run."""

    config: AtlasConfig
    clusters: List[ClusterResult]
    fsa: FSA
    spec_program: Program
    oracle_stats: OracleStats
    positives: Set[Word] = field(default_factory=set)
    elapsed_seconds: float = 0.0

    @property
    def initial_fsa_states(self) -> int:
        return sum(cluster.rpni_stats.initial_states for cluster in self.clusters)

    @property
    def final_fsa_states(self) -> int:
        return sum(cluster.rpni_stats.final_states for cluster in self.clusters)

    def covered_functions(self) -> Set[Tuple[str, str]]:
        """Library functions mentioned by at least one inferred specification."""
        covered: Set[Tuple[str, str]] = set()
        for _source, symbol, _target in self.fsa.transitions():
            if isinstance(symbol, SpecVariable):
                covered.add(symbol.method_key)
        return covered


class Atlas:
    """Active learning of points-to specifications."""

    def __init__(
        self,
        library_program: Optional[Program] = None,
        interface: Optional[LibraryInterface] = None,
        config: Optional[AtlasConfig] = None,
        cache=True,
    ):
        self.library_program = library_program if library_program is not None else build_library_program()
        self.interface = interface if interface is not None else build_interface(self.library_program)
        self.config = config if config is not None else AtlasConfig()
        self.oracle = WitnessOracle(
            self.library_program,
            self.interface,
            initialization=self.config.initialization,
            cache=cache,
        )

    # ------------------------------------------------------------------ phases
    def _make_sampler(self, cluster_interface: LibraryInterface, seed: int, kind: Optional[str] = None):
        kind = kind if kind is not None else self.config.sampler
        if kind == "mcts":
            return MCTSSampler(cluster_interface, max_calls=self.config.max_calls, seed=seed)
        if kind == "random":
            return RandomSampler(cluster_interface, max_calls=self.config.max_calls, seed=seed)
        raise ValueError(f"unknown sampler {kind!r}")

    def run_cluster(
        self,
        classes: Sequence[str],
        seed: int,
        extra_positives: Sequence[Word] = (),
    ) -> ClusterResult:
        """Run phase one and phase two for a single cluster of classes.

        *extra_positives* are targeted candidate words injected on top of
        whatever phase one produces (the repair path feeds counterexample-
        derived words here).  They are filtered through the oracle exactly
        like sampled candidates -- RPNI trusts its positives, so an
        unwitnessed injection must not reach it -- and words mentioning
        classes outside this cluster are skipped.
        """
        cluster_interface = self.interface.restricted_to(classes)
        positives: Set[Word] = set()
        sampling_stats = SamplingStats()
        enumeration_stats: Optional[EnumerationStats] = None

        if self.config.strategy == "targeted":
            pass  # positives come exclusively from the injected words below
        elif self.config.strategy == "enumerate":
            enumerator = CandidateEnumerator(
                cluster_interface,
                library_program=self.library_program,
                exhaustive_calls=self.config.exhaustive_calls,
                max_calls=self.config.max_calls,
                budget=self.config.enumeration_budget,
            )
            positives, enumeration_stats = enumerator.run(self.oracle)
            if self.config.samples_per_cluster > 0:
                sampler = self._make_sampler(cluster_interface, seed)
                for word in positives:
                    sampler.observe(word, True)
                sampled, sampling_stats = sample_positive_examples(
                    sampler, self.oracle, self.config.samples_per_cluster
                )
                positives |= sampled
        elif self.config.strategy in ("mcts", "random"):
            sampler = self._make_sampler(cluster_interface, seed, kind=self.config.strategy)
            positives, sampling_stats = sample_positive_examples(
                sampler, self.oracle, self.config.samples_per_cluster
            )
        else:
            raise ValueError(f"unknown phase-one strategy {self.config.strategy!r}")

        cluster_classes = set(classes)
        for word in sorted(extra_positives, key=word_sort_key):
            if any(variable.class_name not in cluster_classes for variable in word):
                continue
            if self.oracle(word):
                positives.add(word)

        fsa, rpni_stats = learn_fsa(
            positives,
            self.oracle,
            max_check_length=self.config.rpni_max_check_length,
            max_checked_words=self.config.rpni_max_checked_words,
        )
        return ClusterResult(
            classes=tuple(classes),
            positives=positives,
            fsa=fsa,
            sampling_stats=sampling_stats,
            rpni_stats=rpni_stats,
            enumeration_stats=enumeration_stats,
        )

    def run(self, executor=None) -> AtlasResult:
        """Run the full pipeline over every configured cluster.

        Clusters are driven through an :mod:`repro.engine.executor` strategy
        (serial by default), and progress telemetry goes out through
        :func:`repro.obs.trace.emit`.  Per-cluster seeds are derived from the
        run seed and the cluster index, never from scheduling order, so every
        executor produces the same automaton.
        """
        from repro.engine.events import RunFinished, RunStarted
        from repro.engine.executor import ClusterJob, SerialExecutor
        from repro.obs.trace import emit

        executor = executor if executor is not None else SerialExecutor()

        start = time.perf_counter()
        jobs = [
            ClusterJob(index=index, classes=tuple(cluster), seed=self.config.seed + index)
            for index, cluster in enumerate(self.config.clusters)
        ]
        emit(
            RunStarted(
                num_clusters=len(jobs),
                executor=executor.name,
                cache_entries=self.oracle.cache_size(),
            )
        )
        outcomes = executor.run(self, jobs)
        clusters: List[ClusterResult] = [outcome.result for outcome in outcomes]

        combined = fsa_union([cluster.fsa for cluster in clusters])
        spec_program = generate_code_fragments(combined, self.interface)
        positives: Set[Word] = set()
        for cluster in clusters:
            positives.update(cluster.positives)

        elapsed = time.perf_counter() - start
        emit(
            RunFinished(
                num_clusters=len(jobs),
                elapsed_seconds=elapsed,
                oracle_queries=self.oracle.stats.queries,
                cache_hits=self.oracle.stats.cache_hits,
                hit_rate=self.oracle.stats.hit_rate,
                witnesses_executed=self.oracle.stats.executions,
            )
        )
        return AtlasResult(
            config=self.config,
            clusters=clusters,
            fsa=combined,
            spec_program=spec_program,
            oracle_stats=self.oracle.stats,
            positives=positives,
            elapsed_seconds=elapsed,
        )


def infer_specifications(
    config: Optional[AtlasConfig] = None,
    library_program: Optional[Program] = None,
) -> AtlasResult:
    """Convenience wrapper: run Atlas with the given configuration."""
    return Atlas(library_program=library_program, config=config).run()
