"""Per-program client analysis against a fixed, precompiled specification set.

The :class:`ClientAnalyzer` is the query-answering half of the service: it
loads a learned specification once (typically from a :class:`SpecStore`),
merges the analysis-invariant parts of every request -- core library stubs,
the source/sink framework, the code-fragment specifications -- into one base
program up front, and then answers "what are the information flows of this
client program?" requests with per-request timing.  Each answer comes from
the analysis result cache when one is configured, else from the
:class:`~repro.solve.engine.CompiledAnalysisEngine` (which pre-solves the
base once and forks it per program), followed by the taint client.  The
reference :class:`~repro.pointsto.andersen.AndersenAnalysis` is not on this
path; it stays as the test oracle (:func:`repro.diff.checker.reference_flows`).

Flow reports are canonical: flows are sorted, and the :meth:`FlowReport.canonical`
encoding excludes timing, so two reports for the same program under the same
specs compare equal regardless of which process (or how many workers)
produced them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.benchgen.generator import GeneratedApp
from repro.client.sources_sinks import build_framework_program
from repro.client.taint import Flow, InformationFlowAnalysis
from repro.lang.program import Program
from repro.lang.serialize import program_digest, program_to_dict
from repro.library.registry import build_interface, build_library_program, core_program
from repro.obs import trace as _trace

#: environment fallback for the analysis cache directory
ANALYSIS_CACHE_ENV = "REPRO_ANALYSIS_CACHE"

_FLOW_FIELDS = (
    "source_class",
    "source_method",
    "sink_class",
    "sink_method",
    "sink_caller_class",
    "sink_caller_method",
    "sink_statement_index",
)


def flow_to_dict(flow: Flow) -> Dict:
    return {name: getattr(flow, name) for name in _FLOW_FIELDS}


def flow_from_dict(data: Dict) -> Flow:
    return Flow(**{name: data[name] for name in _FLOW_FIELDS})


def _flow_sort_key(flow: Flow) -> Tuple:
    return tuple(getattr(flow, name) for name in _FLOW_FIELDS)


@dataclass(frozen=True)
class RequestTiming:
    """Wall-clock breakdown of one analysis request.

    ``andersen_seconds`` runs from the request's start to the end of the
    solve: the merge with the base program, the digest, the cache lookup
    and the points-to solve (zero on a cache hit).  ``solve_seconds`` is
    the lookup and solve alone, and ``solve_outcome`` says how the answer
    came: ``"hit"`` (cache), ``"incremental"`` (extended a cached fixpoint)
    or ``"cold"`` (forked the pre-solved base).  Both solve fields are
    optional only so that reports encoded without them still decode.
    """

    andersen_seconds: float
    taint_seconds: float
    total_seconds: float
    solve_seconds: Optional[float] = None
    solve_outcome: Optional[str] = None


@dataclass(frozen=True)
class FlowReport:
    """The service's answer for one client program."""

    program: str
    flows: Tuple[Flow, ...]  # canonically sorted
    timing: RequestTiming
    spec_id: Optional[str] = None

    @property
    def num_flows(self) -> int:
        return len(self.flows)

    def canonical(self) -> Dict:
        """The timing-free encoding two equivalent analyses share bit-for-bit."""
        return {
            "program": self.program,
            "spec_id": self.spec_id,
            "flows": [flow_to_dict(flow) for flow in self.flows],
        }

    def to_dict(self, include_timing: bool = True) -> Dict:
        payload = self.canonical()
        if include_timing:
            payload["timing"] = {
                "andersen_seconds": self.timing.andersen_seconds,
                "taint_seconds": self.timing.taint_seconds,
                "total_seconds": self.timing.total_seconds,
            }
            if self.timing.solve_outcome is not None:
                payload["timing"]["solve_seconds"] = self.timing.solve_seconds
                payload["timing"]["solve_outcome"] = self.timing.solve_outcome
        return payload

    @classmethod
    def from_dict(cls, data: Dict) -> "FlowReport":
        timing = data.get("timing") or {}
        solve_seconds = timing.get("solve_seconds")
        return cls(
            program=data["program"],
            flows=tuple(
                sorted((flow_from_dict(entry) for entry in data["flows"]), key=_flow_sort_key)
            ),
            timing=RequestTiming(
                andersen_seconds=float(timing.get("andersen_seconds", 0.0)),
                taint_seconds=float(timing.get("taint_seconds", 0.0)),
                total_seconds=float(timing.get("total_seconds", 0.0)),
                solve_seconds=None if solve_seconds is None else float(solve_seconds),
                solve_outcome=timing.get("solve_outcome"),
            ),
            spec_id=data.get("spec_id"),
        )


class ClientAnalyzer:
    """Answers taint queries for client programs under one specification set."""

    def __init__(
        self,
        spec_program: Program,
        library_program: Optional[Program] = None,
        framework: Optional[Program] = None,
        spec_id: Optional[str] = None,
        analysis_cache_dir: Optional[str] = None,
        analysis_cache_worker: Optional[str] = None,
    ):
        library = library_program if library_program is not None else build_library_program()
        framework = framework if framework is not None else build_framework_program()
        # everything that does not vary per request is merged exactly once
        self.base_program = (
            core_program(library).merged_with(framework).merged_with(spec_program)
        )
        self.spec_id = spec_id
        self.analysis_cache_dir = (
            analysis_cache_dir or os.environ.get(ANALYSIS_CACHE_ENV) or None
        )
        self.analysis_cache_worker = analysis_cache_worker
        # both are built lazily (and dropped on pickling): the engine
        # pre-solves the base program, the cache reads its directory
        self._engine = None
        self._cache = None
        self._cache_loaded = False

    @classmethod
    def from_store(
        cls,
        store,
        spec_id: Optional[str] = None,
        library_program: Optional[Program] = None,
        interface=None,
        config=None,
        analysis_cache_dir: Optional[str] = None,
        analysis_cache_worker: Optional[str] = None,
    ) -> "ClientAnalyzer":
        """Build an analyzer from a stored specification.

        Without *spec_id* the latest record for *library_program*'s
        fingerprint is used (the common "current specs for this library"
        case) -- note that this matches *any* learner config, so a store
        shared between, say, full-preset learns and small smoke learns
        serves whichever was stored last; pass *config* (an
        :class:`AtlasConfig`) to restrict the lookup to that config's
        digest, or an explicit *spec_id* to pin a version exactly.  The
        stored automaton is compiled to code-fragment specifications here,
        once, not per analyzed program.

        Compilation uses the *spec-compile* interface (the inference
        interface plus :data:`~repro.library.registry.SPEC_EXTENSION_CLASSES`)
        by default: identical output for ordinary learned automata, and the
        only interface under which repaired automata -- whose words may cross
        the array boundary -- can be compiled at all.
        """
        from repro.engine.cache import program_fingerprint
        from repro.library.registry import build_spec_interface
        from repro.service.store import SpecNotFoundError, config_digest

        library = library_program if library_program is not None else build_library_program()
        if spec_id is None:
            record = store.latest(
                fingerprint=program_fingerprint(library),
                config_digest=config_digest(config) if config is not None else None,
            )
            if record is None:
                raise SpecNotFoundError(
                    f"no stored specification for this library in {store.root}"
                )
            spec_id = record.spec_id
        if interface is None:
            interface = build_spec_interface(library)
        result = store.get(spec_id, interface=interface)
        return cls(
            result.spec_program,
            library_program=library,
            spec_id=spec_id,
            analysis_cache_dir=analysis_cache_dir,
            analysis_cache_worker=analysis_cache_worker,
        )

    # -------------------------------------------------------------- engine/cache
    def _compiled_engine(self):
        if self._engine is None:
            from repro.solve.engine import CompiledAnalysisEngine

            self._engine = CompiledAnalysisEngine(self.base_program)
        return self._engine

    def _analysis_cache(self):
        if not self._cache_loaded:
            self._cache_loaded = True
            if self.analysis_cache_dir:
                from repro.solve.cache import AnalysisResultCache

                # the canonical digest, unlike a pretty-print fingerprint, does
                # not follow the process's hash seed, so a restart still hits
                self._cache = AnalysisResultCache(
                    self.analysis_cache_dir,
                    spec_key=program_digest(self.base_program),
                    worker=self.analysis_cache_worker,
                )
        return self._cache

    def close(self) -> None:
        """Close the analysis cache's shard; a later answer opens it again."""
        if self._cache is not None:
            self._cache.close()

    def __getstate__(self) -> Dict:
        # the engine (a solved base closure) and the cache (an open directory
        # view) are per-process; worker processes rebuild them lazily
        state = dict(self.__dict__)
        state["_engine"] = None
        state["_cache"] = None
        state["_cache_loaded"] = False
        return state

    # ---------------------------------------------------------------- analysis
    def analyze_program(
        self, program: Program, name: str, points_to_observer=None
    ) -> FlowReport:
        """Answer one client program: cache hit > incremental > cold solve.

        The points-to solve runs on the compiled engine, then the taint
        client on its closure.  *points_to_observer*, when given, is called
        with the :class:`~repro.pointsto.relations.PointsToResult` right
        after the solve -- the hook the coverage-guided fuzzer uses to
        fingerprint edge shapes without re-running any analysis.  The cache
        is bypassed when an observer is given (a cached answer has no
        solver to observe).  Flows come back in canonical order, so reports
        are bit-identical whichever path -- or cache entry -- produced them.
        """
        with _trace.span("analysis.analyze", program=name) as analyze_span:
            started = time.perf_counter()
            merged = program.merged_with(self.base_program)
            # encoded once: the digest and the engine's snapshot pool share it
            document = program_to_dict(program)
            digest = program_digest(program, document)
            cache = self._analysis_cache() if points_to_observer is None else None
            with _trace.span("analysis.solve", program=name) as solve_span:
                solve_started = time.perf_counter()
                cached = cache.get(digest) if cache is not None else None
                if cached is None:
                    engine = self._compiled_engine()
                    points_to, outcome = engine.analyze(program, merged, document, digest)
                    solve_span.set("dispatch_rounds", engine.dispatch_rounds)
                    solve_span.set("dispatch_capped", engine.dispatch_capped)
                    if points_to_observer is not None:
                        points_to_observer(points_to)
                else:
                    outcome = "hit"
                solve_span.set("outcome", outcome)
                solve_finished = time.perf_counter()
            if cached is None:
                with _trace.span("analysis.taint", program=name):
                    report = InformationFlowAnalysis(merged).run(points_to=points_to)
                flows = tuple(sorted(report.flows, key=_flow_sort_key))
                finished = time.perf_counter()
                andersen_seconds = solve_finished - started
                taint_seconds = finished - solve_finished
                if cache is not None:
                    cache.put(digest, [flow_to_dict(flow) for flow in flows])
            else:
                flows = tuple(
                    sorted((flow_from_dict(entry) for entry in cached), key=_flow_sort_key)
                )
                finished = time.perf_counter()
                andersen_seconds = 0.0
                taint_seconds = 0.0
            analyze_span.set("flows", len(flows))
        return FlowReport(
            program=name,
            flows=flows,
            timing=RequestTiming(
                andersen_seconds=andersen_seconds,
                taint_seconds=taint_seconds,
                total_seconds=finished - started,
                solve_seconds=solve_finished - solve_started,
                solve_outcome=outcome,
            ),
            spec_id=self.spec_id,
        )

    def analyze_app(self, app: GeneratedApp) -> FlowReport:
        return self.analyze_program(app.program, app.name)

    def analyze_apps(self, apps: Iterable[GeneratedApp]):
        for app in apps:
            yield self.analyze_app(app)


__all__ = [
    "ANALYSIS_CACHE_ENV",
    "ClientAnalyzer",
    "Flow",
    "FlowReport",
    "RequestTiming",
    "flow_from_dict",
    "flow_to_dict",
]
