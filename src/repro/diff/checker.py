"""The differential check: concrete ground truth vs static pipelines.

One :class:`DifferentialChecker` holds a set of named, precompiled analysis
pipelines (each a :class:`~repro.service.analyzer.ClientAnalyzer` over a
different specification set) and answers, per generated program: which
ground-truth flows does each pipeline miss?  A missed flow is a
**divergence** -- a static analysis claiming soundness failed to
over-approximate real library behaviour.  Extra static flows are *not*
divergences (over-approximation is the contract); they are tallied as
``spurious`` telemetry instead.

Pipeline names mirror the experiment layer's specification modes:

* ``ground_truth`` -- code fragments generated from the ground-truth
  specification patterns (the default primary pipeline);
* ``handwritten`` -- the deliberately incomplete handwritten specification
  set of Section 6.1 (fuzzing it yields the reproducible counterexamples in
  the golden corpus);
* ``implementation`` -- handwritten-model Andersen: the analysis run
  directly over the library implementation, the independent cross-check;
* ``store`` -- a learned specification loaded from a
  :class:`~repro.service.store.SpecStore`.

With ``engine_check`` every pipeline is also compared with its reference
oracle (:func:`reference_flows`); any difference is an ``engine-mismatch``
divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.client.taint import Flow, InformationFlowAnalysis
from repro.diff.families import GeneratedScenario
from repro.diff.truth import ConcreteExecutionError, ConcreteTaintAnalysis
from repro.lang.program import Program
from repro.service.analyzer import (
    ClientAnalyzer,
    _flow_sort_key,
    flow_from_dict,
    flow_to_dict,
)

#: divergence kinds
MISSED_FLOW = "missed-flow"
CRASH = "crash"
ENGINE_MISMATCH = "engine-mismatch"

PIPELINE_MODES = ("ground_truth", "handwritten", "implementation", "store")


def build_pipeline_analyzer(
    mode: str,
    library_program=None,
    interface=None,
    store=None,
    spec_id: Optional[str] = None,
) -> ClientAnalyzer:
    """Compile the :class:`ClientAnalyzer` for one pipeline mode."""
    from repro.library.ground_truth import ground_truth_program
    from repro.library.handwritten import handwritten_program
    from repro.library.registry import build_interface, build_library_program, replaceable_library

    library = library_program if library_program is not None else build_library_program()
    if mode == "store":
        if store is None:
            raise ValueError("pipeline mode 'store' needs a SpecStore")
        # interface=None lets from_store pick the spec-compile interface, the
        # only one under which repaired (array-crossing) automata compile
        return ClientAnalyzer.from_store(
            store, spec_id=spec_id, library_program=library, interface=None
        )
    if interface is None:
        interface = build_interface(library)
    if mode == "ground_truth":
        spec_program = ground_truth_program(interface)
    elif mode == "handwritten":
        spec_program = handwritten_program(interface)
    elif mode == "implementation":
        spec_program = replaceable_library(library)
    else:
        raise ValueError(f"unknown pipeline mode {mode!r} (known: {PIPELINE_MODES})")
    return ClientAnalyzer(spec_program, library_program=library, spec_id=mode)


@dataclass(frozen=True)
class Divergence:
    """One way a static pipeline failed to cover the ground truth."""

    kind: str  # MISSED_FLOW or CRASH
    pipeline: str
    flow: Optional[Flow] = None
    detail: str = ""

    def signature(self) -> str:
        """A stable identity that survives shrinking (no statement indexes)."""
        if self.flow is not None:
            return (
                f"{self.kind}:{self.pipeline}:"
                f"{self.flow.source_class}.{self.flow.source_method}->"
                f"{self.flow.sink_class}.{self.flow.sink_method}"
            )
        return f"{self.kind}:{self.pipeline}:{self.detail}"

    def to_dict(self) -> Dict:
        payload = {"kind": self.kind, "pipeline": self.pipeline, "detail": self.detail}
        payload["flow"] = flow_to_dict(self.flow) if self.flow is not None else None
        return payload

    @classmethod
    def from_dict(cls, data: Dict) -> "Divergence":
        flow = data.get("flow")
        return cls(
            kind=data["kind"],
            pipeline=data["pipeline"],
            flow=flow_from_dict(flow) if flow else None,
            detail=data.get("detail", ""),
        )


@dataclass
class DiffOutcome:
    """The differential verdict for one checked program."""

    name: str
    family: str
    seed: int
    statements: int
    concrete: Tuple[Flow, ...]  # canonically sorted ground truth
    flows: Dict[str, Tuple[Flow, ...]]  # pipeline -> canonically sorted flows
    divergences: Tuple[Divergence, ...]
    spurious: Dict[str, int] = field(default_factory=dict)
    shrunk_program: Optional[Program] = None
    shrink_steps: int = 0

    @property
    def diverged(self) -> bool:
        return bool(self.divergences)

    def signatures(self) -> Tuple[str, ...]:
        return tuple(sorted({divergence.signature() for divergence in self.divergences}))

    def canonical(self) -> Dict:
        """The timing-free encoding two equivalent campaign runs share."""
        from repro.lang.serialize import program_to_dict

        payload = {
            "name": self.name,
            "family": self.family,
            "seed": self.seed,
            "statements": self.statements,
            "concrete_flows": [flow_to_dict(flow) for flow in self.concrete],
            "flows": {
                pipeline: [flow_to_dict(flow) for flow in flows]
                for pipeline, flows in sorted(self.flows.items())
            },
            "divergences": [divergence.to_dict() for divergence in self.divergences],
            "spurious": dict(sorted(self.spurious.items())),
            "shrink_steps": self.shrink_steps,
        }
        payload["shrunk_program"] = (
            program_to_dict(self.shrunk_program) if self.shrunk_program is not None else None
        )
        return payload

    @classmethod
    def from_dict(cls, data: Dict) -> "DiffOutcome":
        """Rebuild an outcome from its :meth:`canonical` encoding.

        This is what lets the repair engine ingest a fuzz report *file*
        (``repro fuzz --out``) hours or machines away from the campaign that
        produced it.
        """
        from repro.lang.serialize import program_from_dict

        shrunk = data.get("shrunk_program")
        return cls(
            name=data["name"],
            family=data["family"],
            seed=int(data["seed"]),
            statements=int(data["statements"]),
            concrete=tuple(
                sorted((flow_from_dict(entry) for entry in data["concrete_flows"]), key=_flow_sort_key)
            ),
            flows={
                pipeline: tuple(
                    sorted((flow_from_dict(entry) for entry in flows), key=_flow_sort_key)
                )
                for pipeline, flows in data["flows"].items()
            },
            divergences=tuple(
                Divergence.from_dict(entry) for entry in data["divergences"]
            ),
            spurious=dict(data.get("spurious", {})),
            shrunk_program=program_from_dict(shrunk) if shrunk is not None else None,
            shrink_steps=int(data.get("shrink_steps", 0)),
        )


def _sorted_flows(flows) -> Tuple[Flow, ...]:
    return tuple(sorted(flows, key=_flow_sort_key))


def reference_flows(analyzer: ClientAnalyzer, program: Program) -> Tuple[Flow, ...]:
    """The reference oracle's canonically sorted flows for *program*.

    Runs :class:`~repro.pointsto.andersen.AndersenAnalysis` (the literal
    :class:`~repro.pointsto.cfl.CFLSolver`, whole-program extraction) and
    the taint client over ``program.merged_with(analyzer.base_program)`` --
    none of the engine's pre-solved base, sliced extraction, snapshots or
    cache.  ``--engine-check`` and the engine tests compare against it.
    """
    merged = program.merged_with(analyzer.base_program)
    return _sorted_flows(InformationFlowAnalysis(merged).run().flows)


class DifferentialChecker:
    """Checks programs against a fixed set of precompiled pipelines."""

    def __init__(
        self,
        analyzers: Dict[str, ClientAnalyzer],
        library_program=None,
        max_steps: int = 200_000,
        engine_check: bool = False,
    ):
        if not analyzers:
            raise ValueError("at least one analysis pipeline is required")
        self.analyzers = dict(analyzers)
        self.truth = ConcreteTaintAnalysis(library_program=library_program, max_steps=max_steps)
        self.engine_check = bool(engine_check)

    # ------------------------------------------------------------------ checks
    def check_program(
        self,
        program: Program,
        name: str,
        family: str = "",
        seed: int = 0,
        observers: Optional[Dict] = None,
    ) -> DiffOutcome:
        """Differentially check one program; never raises on divergence.

        *observers* optionally maps pipeline names to points-to observer
        callables (see :meth:`ClientAnalyzer.analyze_program`); the guided
        fuzzer uses it to collect coverage from its primary pipeline.
        """
        divergences: List[Divergence] = []
        try:
            concrete = _sorted_flows(self.truth.run(program))
        except ConcreteExecutionError as error:
            concrete = ()
            divergences.append(
                Divergence(kind=CRASH, pipeline="concrete", detail=f"{type(error.cause).__name__}")
            )

        flows: Dict[str, Tuple[Flow, ...]] = {}
        spurious: Dict[str, int] = {}
        for pipeline, analyzer in sorted(self.analyzers.items()):
            observer = observers.get(pipeline) if observers else None
            report = analyzer.analyze_program(program, name, points_to_observer=observer)
            flows[pipeline] = report.flows
            reported = set(report.flows)
            for flow in concrete:
                if flow not in reported:
                    divergences.append(Divergence(kind=MISSED_FLOW, pipeline=pipeline, flow=flow))
            spurious[pipeline] = len(reported.difference(concrete))
            if self.engine_check:
                reference = reference_flows(analyzer, program)
                for flow in reference:
                    if flow not in reported:
                        divergences.append(
                            Divergence(
                                kind=ENGINE_MISMATCH,
                                pipeline=pipeline,
                                flow=flow,
                                detail="missing from compiled solver",
                            )
                        )
                for flow in sorted(reported.difference(reference), key=_flow_sort_key):
                    divergences.append(
                        Divergence(
                            kind=ENGINE_MISMATCH,
                            pipeline=pipeline,
                            flow=flow,
                            detail="extra in compiled solver",
                        )
                    )

        return DiffOutcome(
            name=name,
            family=family,
            seed=seed,
            statements=program.statement_count(),
            concrete=concrete,
            flows=flows,
            divergences=tuple(divergences),
            spurious=spurious,
        )

    def check(self, scenario: GeneratedScenario) -> DiffOutcome:
        return self.check_program(
            scenario.program, scenario.name, family=scenario.family, seed=scenario.seed
        )


__all__ = [
    "CRASH",
    "ENGINE_MISMATCH",
    "MISSED_FLOW",
    "PIPELINE_MODES",
    "DiffOutcome",
    "DifferentialChecker",
    "Divergence",
    "build_pipeline_analyzer",
    "reference_flows",
]
