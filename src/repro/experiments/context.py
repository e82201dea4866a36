"""Shared, lazily built experiment state.

Building the inferred specifications and running the points-to analysis for
46 apps under four specification sets is the expensive part of the
evaluation; the :class:`ExperimentContext` builds each artifact once and
caches it so the figure/table drivers (and the benchmark harness) can share
the work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.benchgen.generator import GeneratedApp
from repro.benchgen.suite import BenchmarkSuite, benchmark_suite
from repro.client.sources_sinks import build_framework_program
from repro.client.taint import InformationFlowAnalysis, InformationFlowReport
from repro.engine import InferenceEngine, PersistentCache
from repro.experiments.config import ExperimentConfig, QUICK_CONFIG
from repro.learn.oracle import WitnessOracle
from repro.lang.program import Program
from repro.learn.pipeline import AtlasResult
from repro.library.ground_truth import ground_truth_fsa, ground_truth_program
from repro.library.handwritten import handwritten_fsa, handwritten_program
from repro.library.registry import build_interface, build_library_program, core_program, replaceable_library
from repro.pointsto.andersen import AndersenAnalysis
from repro.pointsto.relations import PointsToResult
from repro.specs.fsa import FSA
from repro.specs.variables import LibraryInterface

#: Specification modes an app can be analyzed under.
SPEC_MODES = ("empty", "handwritten", "atlas", "ground_truth", "implementation")


class ExperimentContext:
    """Lazily builds and caches every artifact the experiments need."""

    def __init__(self, config: Optional[ExperimentConfig] = None):
        self.config = config if config is not None else QUICK_CONFIG
        self._library: Optional[Program] = None
        self._interface: Optional[LibraryInterface] = None
        self._framework: Optional[Program] = None
        self._core: Optional[Program] = None
        self._suite: Optional[BenchmarkSuite] = None
        self._atlas_result: Optional[AtlasResult] = None
        self._oracle_caches: Dict[str, PersistentCache] = {}
        self._spec_programs: Dict[str, Program] = {}
        self._analyses: Dict[Tuple[str, str], PointsToResult] = {}
        self._flow_reports: Dict[Tuple[str, str], InformationFlowReport] = {}

    # ------------------------------------------------------------------ base artifacts
    @property
    def library(self) -> Program:
        if self._library is None:
            self._library = build_library_program()
        return self._library

    @property
    def interface(self) -> LibraryInterface:
        if self._interface is None:
            self._interface = build_interface(self.library)
        return self._interface

    @property
    def framework(self) -> Program:
        if self._framework is None:
            self._framework = build_framework_program()
        return self._framework

    @property
    def core(self) -> Program:
        if self._core is None:
            self._core = core_program(self.library)
        return self._core

    @property
    def suite(self) -> BenchmarkSuite:
        if self._suite is None:
            self._suite = benchmark_suite(
                count=self.config.num_apps,
                seed=self.config.seed,
                max_statements=self.config.app_max_statements,
                min_statements=self.config.app_min_statements,
            )
        return self._suite

    # ------------------------------------------------------------------ specification sets
    def engine(self) -> InferenceEngine:
        """The execution engine configured for this evaluation run."""
        return InferenceEngine(cache_dir=self.config.cache_dir, workers=self.config.workers)

    def oracle_cache(self, initialization: str = "instantiation") -> Optional[PersistentCache]:
        """The shared persistent oracle cache for *initialization* (or ``None``)."""
        if self.config.cache_dir is None:
            return None
        if initialization not in self._oracle_caches:
            self._oracle_caches[initialization] = self.engine().open_cache(
                self.library, initialization
            )
        return self._oracle_caches[initialization]

    def oracle(self, initialization: str = "instantiation") -> WitnessOracle:
        """A witness oracle wired to this evaluation's persistent cache.

        Experiments that query the oracle directly (e.g. the §6.3 design
        choices) must build it here rather than constructing
        :class:`WitnessOracle` by hand, so their answers share the
        evaluation-wide cache and warm re-runs stay execution-free.
        """
        cache = self.oracle_cache(initialization)
        return WitnessOracle(
            self.library,
            self.interface,
            initialization=initialization,
            cache=cache if cache is not None else True,
        )

    def flush_oracle_caches(self) -> None:
        """Write any pending oracle answers of context-built oracles to disk."""
        for cache in self._oracle_caches.values():
            cache.flush()

    def spec_store(self):
        """The configured :class:`~repro.service.store.SpecStore` (or ``None``)."""
        if self.config.spec_store_dir is None:
            return None
        from repro.service.store import SpecStore  # deferred: service sits above us

        return SpecStore(self.config.spec_store_dir)

    def _stored_atlas_result(self, store) -> Optional[AtlasResult]:
        """The latest stored result matching this evaluation's exact key."""
        from repro.engine.cache import program_fingerprint
        from repro.service.store import config_digest

        record = store.latest(
            fingerprint=program_fingerprint(self.library),
            config_digest=config_digest(self.config.atlas),
        )
        if record is None:
            return None
        return store.get(record.spec_id, interface=self.interface)

    @property
    def atlas_result(self) -> AtlasResult:
        if self._atlas_result is None:
            store = self.spec_store()
            if store is not None:
                self._atlas_result = self._stored_atlas_result(store)
                if self._atlas_result is not None:
                    return self._atlas_result
            # share the context-wide cache instance: a second instance on the
            # same file would not see this run's unflushed in-memory entries
            self._atlas_result = self.engine().run(
                self.config.atlas,
                library_program=self.library,
                interface=self.interface,
                cache=self.oracle_cache(self.config.atlas.initialization),
            )
            if store is not None:
                store.put(self._atlas_result, library_program=self.library)
        return self._atlas_result

    def atlas_fsa(self) -> FSA:
        return self.atlas_result.fsa

    def ground_truth_fsa(self) -> FSA:
        return ground_truth_fsa()

    def handwritten_fsa(self) -> FSA:
        return handwritten_fsa()

    def spec_program(self, mode: str) -> Program:
        """The library replacement for *mode* (see ``SPEC_MODES``)."""
        if mode not in SPEC_MODES:
            raise ValueError(f"unknown specification mode {mode!r}")
        if mode not in self._spec_programs:
            if mode == "empty":
                program = Program([])
            elif mode == "handwritten":
                program = handwritten_program(self.interface)
            elif mode == "ground_truth":
                program = ground_truth_program(self.interface)
            elif mode == "atlas":
                program = self.atlas_result.spec_program
            else:  # implementation
                program = replaceable_library(self.library)
            self._spec_programs[mode] = program
        return self._spec_programs[mode]

    # ------------------------------------------------------------------ per-app analyses
    def analyzed_program(self, app: GeneratedApp, mode: str) -> Program:
        """The complete program analyzed for *app* under specification set *mode*."""
        return (
            app.program
            .merged_with(self.core)
            .merged_with(self.framework)
            .merged_with(self.spec_program(mode))
        )

    def analysis(self, app: GeneratedApp, mode: str) -> PointsToResult:
        key = (app.name, mode)
        if key not in self._analyses:
            program = self.analyzed_program(app, mode)
            self._analyses[key] = AndersenAnalysis(program).run()
        return self._analyses[key]

    def flow_report(self, app: GeneratedApp, mode: str) -> InformationFlowReport:
        key = (app.name, mode)
        if key not in self._flow_reports:
            result = self.analysis(app, mode)
            self._flow_reports[key] = InformationFlowAnalysis(result.program).run(points_to=result)
        return self._flow_reports[key]
